package experiments

import (
	"fmt"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/viz"
)

func init() {
	register(Experiment{
		ID:         "E12",
		Title:      "Figures 1 and 2: bands on B^2_n and a row jumping over them",
		PaperClaim: "Fig 1: bands wind around faults; Fig 2: a row of the extracted torus crosses bands via diagonal jumps",
		Run:        runE12,
	})
	register(Experiment{
		ID:         "A1",
		Title:      "ablation: remove the jump edge classes of B^2_n",
		PaperClaim: "the vertical jumps close columns over bands and the diagonal jumps close rows; without either the torus cannot be extracted",
		Run:        runA1,
	})
	register(Experiment{
		ID:         "A3",
		Title:      "ablation: supernode size h vs survival (Chernoff knee)",
		PaperClaim: "Section 4: P(supernode bad) = 2^-Omega(h); survival turns on sharply once h clears k^2/(1-p')",
		Run:        runA3,
	})
}

func runE12(cfg Config) error {
	p := core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}
	g, err := core.NewGraph(p)
	if err != nil {
		return err
	}
	faults := fault.NewSet(g.NumNodes())
	// A small diagonal cluster, like the blob Figure 1 masks.
	base := g.NodeIndex(44, 40)
	faults.Add(base)
	faults.Add(g.NodeIndex(45, 41))
	faults.Add(g.NodeIndex(46, 41))
	res, err := g.ContainTorus(faults, core.ExtractOptions{CheckConsistency: true})
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, viz.Legend)
	fmt.Fprintln(cfg.Out, "--- Figure 1: bands masking a fault cluster ---")
	rowLo, colLo := viz.FaultWindow(g, faults, 28, 64)
	fig1, err := viz.Bands(g, res.Bands, faults, rowLo, colLo, 28, 64)
	if err != nil {
		return err
	}
	fmt.Fprint(cfg.Out, fig1)
	fmt.Fprintln(cfg.Out, "--- Figure 2: one extracted row crossing the bands ---")
	fig2, err := viz.RowTrace(g, res.Bands, faults, res.Embedding, viz.JumpingRow(g, res.Embedding, colLo, 64), colLo, 64, 2)
	if err != nil {
		return err
	}
	fmt.Fprint(cfg.Out, fig2)
	return nil
}

func runA1(cfg Config) error {
	p := core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}
	for _, variant := range []struct {
		name          string
		vjump, djump  bool
		needFault     bool
		expectSuccess bool
	}{
		{"full construction", false, false, true, true},
		{"no vertical jumps", true, false, false, false},
		{"no diagonal jumps", false, true, true, false},
	} {
		g, err := core.NewGraph(p)
		if err != nil {
			return err
		}
		g.DisableVJump = variant.vjump
		g.DisableDJump = variant.djump
		faults := fault.NewSet(g.NumNodes())
		if variant.needFault {
			faults.Add(g.NodeIndex(50, 50))
		}
		_, err = g.ContainTorus(faults, core.ExtractOptions{})
		ok := err == nil
		fmt.Fprintf(cfg.Out, "%-20s degree %2d: extraction %v\n", variant.name, g.Degree(), okString(ok))
		if ok != variant.expectSuccess {
			return fmt.Errorf("A1: %s: extraction ok=%v, expected %v", variant.name, ok, variant.expectSuccess)
		}
	}
	return nil
}

func okString(ok bool) string {
	if ok {
		return "succeeds"
	}
	return "fails (as predicted)"
}
