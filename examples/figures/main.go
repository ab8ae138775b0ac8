// Figures: regenerate the paper's Figure 1 and Figure 2 as ASCII art.
//
//	go run ./examples/figures
//
// Figure 1 shows bands on B^2_n winding to mask a fault cluster; Figure 2
// shows one row of the extracted torus crossing those bands with diagonal
// jumps (the '*' path shifts by b when it meets a band).
package main

import (
	"fmt"
	"log"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/viz"
)

func main() {
	p := core.Params{D: 2, W: 4, Pitch: 16, Scale: 1} // n=192, m=256, b=4
	g, err := core.NewGraph(p)
	if err != nil {
		log.Fatal(err)
	}

	// A small diagonal blob of faults, like the one Figure 1 masks.
	faults := fault.NewSet(g.NumNodes())
	faults.Add(g.NodeIndex(44, 40))
	faults.Add(g.NodeIndex(45, 41))
	faults.Add(g.NodeIndex(46, 41))
	faults.Add(g.NodeIndex(46, 42))

	res, err := g.ContainTorus(faults, core.ExtractOptions{CheckConsistency: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(viz.Legend)
	fmt.Println()
	fmt.Println("Figure 1 - bands on B^2_n (paper p.374): straight far away, winding near the faults")
	rowLo, colLo := viz.FaultWindow(g, faults, 30, 72)
	fig1, err := viz.Bands(g, res.Bands, faults, rowLo, colLo, 30, 72)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig1)

	fmt.Println()
	fmt.Println("Figure 2 - obtaining a row from the unmasked part (paper p.374):")
	fmt.Println("the row runs horizontally and takes a +-b diagonal jump wherever a band blocks it")
	guestRow := viz.JumpingRow(g, res.Embedding, colLo, 72)
	fig2, err := viz.RowTrace(g, res.Bands, faults, res.Embedding, guestRow, colLo, 72, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig2)
}
