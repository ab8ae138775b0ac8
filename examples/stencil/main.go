// Stencil: run a parallel computation on the torus extracted from a
// faulty host, and check it against a pristine machine.
//
//	go run ./examples/stencil
//
// This is the paper's motivating scenario end to end: a massively parallel
// machine is built as B^2_n, some processors turn out faulty, the torus is
// reconfigured around them, and then actual work — a Jacobi heat-diffusion
// stencil, an all-reduce, and a routed permutation — runs on the surviving
// machine exactly as it would on a fault-free one.
package main

import (
	"fmt"
	"log"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/parsim"
	"ftnet/internal/rng"
)

func main() {
	// Build the host and break 20 random processors.
	params := core.Params{D: 2, W: 6, Pitch: 18, Scale: 1} // 432x432 logical torus
	g, err := core.NewGraph(params)
	if err != nil {
		log.Fatal(err)
	}
	faults := fault.NewSet(g.NumNodes())
	if err := faults.ExactRandom(rng.New(2024), 20); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host: %d processors, %d faulty\n", g.NumNodes(), faults.Count())

	// Reconfigure: mask the faults with bands and extract the torus.
	res, err := g.ContainTorus(faults, core.ExtractOptions{})
	if err != nil {
		log.Fatal(err)
	}
	machine, err := parsim.New(res.Embedding, g, faults)
	if err != nil {
		log.Fatal(err)
	}
	ideal := parsim.NewIdeal(machine.Shape)
	fmt.Printf("reconfigured machine: %d logical processors on fault-free hardware\n", machine.P())

	// Workload 1: Jacobi heat diffusion from a hot corner.
	field := make([]float64, machine.P())
	field[0] = 1000
	got, err := machine.Stencil(field, 50, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	want, err := ideal.Stencil(field, 50, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jacobi(50 steps): max deviation from pristine torus = %v\n", parsim.MaxDiff(got, want))

	// Workload 2: global reduction.
	vals := make([]float64, machine.P())
	for i := range vals {
		vals[i] = 1
	}
	sum, steps, err := machine.AllReduceSum(vals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all-reduce: sum=%v (want %d) in %d synchronous steps\n", sum, machine.P(), steps)

	// Workload 3: a random permutation routed dimension-ordered.
	perm := rng.New(7).Perm(machine.P())
	st, err := machine.Permutation(perm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random permutation: %d packets, avg %.1f hops, max link load %d\n",
		st.Packets, st.AvgHops, st.MaxLink)

	// Workload 4: Cannon's matrix multiplication (one element per
	// processor), checked against a direct multiply.
	n := machine.Shape[0]
	r := rng.New(99)
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	for i := range a {
		a[i] = r.Float64()
		bm[i] = r.Float64()
	}
	c, commSteps, err := machine.Cannon(a, bm)
	if err != nil {
		log.Fatal(err)
	}
	ref := parsim.MatMulReference(a, bm, n)
	fmt.Printf("cannon %dx%d matmul: max deviation from direct multiply = %.2e (%d comm steps)\n",
		n, n, parsim.MaxDiff(c, ref), commSteps)
}
