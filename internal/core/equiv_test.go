package core

import (
	"errors"
	"fmt"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/parallel"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// Golden equivalence suite: ContainTorus with a scratch — one Reset +
// Eval on the delta engine, diffed against the all-defaults template —
// must produce bit-identical bands, embeddings, reports and survival
// outcomes to the dense pipeline, across random seeds and the crafted
// patterns that exercise its corner cases (multi-box, box extension,
// wrap, dirty-anchor handling and rotation).

// runBoth executes one fault pattern through both pipelines and compares
// everything. scFast is reused across calls on purpose: the restore
// logic between trials is part of what is under test.
func runBoth(t *testing.T, g *Graph, faults *fault.Set, scFast *Scratch, label string) {
	t.Helper()
	resDense, errDense := g.ContainTorus(faults, ExtractOptions{Dense: true})
	resFast, errFast := g.ContainTorus(faults, ExtractOptions{Scratch: scFast})
	if (errDense == nil) != (errFast == nil) {
		t.Fatalf("%s: outcome mismatch: dense err=%v, fast err=%v", label, errDense, errFast)
	}
	if errDense != nil {
		var ud, uf *UnhealthyError
		if errors.As(errDense, &ud) != errors.As(errFast, &uf) {
			t.Fatalf("%s: error class mismatch: dense %v, fast %v", label, errDense, errFast)
		}
		return
	}
	if *resDense.Report != *resFast.Report {
		t.Fatalf("%s: report mismatch: dense %+v, fast %+v", label, *resDense.Report, *resFast.Report)
	}
	for gi := 0; gi < resDense.Bands.K(); gi++ {
		for z := 0; z < g.NumCols; z++ {
			if resDense.Bands.Value(gi, z) != resFast.Bands.Value(gi, z) {
				t.Fatalf("%s: band %d column %d: dense %d, fast %d",
					label, gi, z, resDense.Bands.Value(gi, z), resFast.Bands.Value(gi, z))
			}
		}
	}
	if len(resDense.Embedding.Map) != len(resFast.Embedding.Map) {
		t.Fatalf("%s: embedding sizes differ", label)
	}
	for i := range resDense.Embedding.Map {
		if resDense.Embedding.Map[i] != resFast.Embedding.Map[i] {
			t.Fatalf("%s: embedding differs at guest node %d: dense %d, fast %d",
				label, i, resDense.Embedding.Map[i], resFast.Embedding.Map[i])
		}
	}
}

func TestEquivalenceRandom2D(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	pThm := g.P.TheoremFailureProb()
	for _, rate := range []float64{pThm, 10 * pThm, 1e-4} {
		for seed := uint64(0); seed < 20; seed++ {
			faults := fault.NewSet(g.NumNodes())
			faults.Bernoulli(rng.New(1000*seed+7), rate)
			runBoth(t, g, faults, sc, fmt.Sprintf("d=2 rate=%g seed=%d (%d faults)", rate, seed, faults.Count()))
		}
	}
}

func TestEquivalenceCrafted2D(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	tile := g.P.Tile()
	n := g.P.N()
	m := g.P.M()
	cases := []struct {
		label string
		nodes []int
	}{
		{"empty", nil},
		{"single", []int{g.NodeIndex(100, 100)}},
		{"multi-box", []int{g.NodeIndex(100, 100), g.NodeIndex(400, 300), g.NodeIndex(250, 50)}},
		// A fault on the first row of a slab forces the pigeonhole segment
		// below the box bottom, triggering the box-extension pass.
		{"box-extension", []int{g.NodeIndex(2*tile, 200)}},
		{"wrap", []int{g.NodeIndex(m-1, n-1), g.NodeIndex(0, 150)}},
		// Faults whose footprint touches column 0: the anchor vector is
		// re-derived first and every kept component is probed as an
		// island (see extractIncremental); results must still be
		// identical.
		{"column-0", []int{g.NodeIndex(300, 0)}},
		{"column-wrap", []int{g.NodeIndex(300, n-1)}},
		// A tight cluster in one tile plus its diagonal neighbor: one
		// merged box spanning multiple tiles.
		{"cluster", []int{g.NodeIndex(40, 40), g.NodeIndex(41, 40), g.NodeIndex(tile, tile), g.NodeIndex(tile-1, tile-1)}},
	}
	for _, c := range cases {
		faults := fault.NewSet(g.NumNodes())
		for _, u := range c.nodes {
			faults.Add(u)
		}
		runBoth(t, g, faults, sc, c.label)
		// Run the empty pattern after every crafted one: Reset must fully
		// restore the template state between trials.
		runBoth(t, g, fault.NewSet(g.NumNodes()), sc, c.label+"+restore")
	}
}

// TestEquivalenceAnchorRotation forces the rare case where the bands at
// column 0 genuinely move: the dense anchor then rotates every clean
// column's row vector relative to the template, and the step re-derives
// the whole map. Results must still be bit-identical, and the next
// (clean) trial must restore the template.
func TestEquivalenceAnchorRotation(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	rotations := 0
	for _, row := range []int{15, 20, 0, 34} {
		faults := fault.NewSet(g.NumNodes())
		faults.Add(g.NodeIndex(row, 0))
		runBoth(t, g, faults, sc, fmt.Sprintf("anchor row=%d", row))
		if sc.ses.anchorRotated() {
			rotations++
		}
		runBoth(t, g, fault.NewSet(g.NumNodes()), sc, fmt.Sprintf("anchor row=%d +restore", row))
	}
	if rotations == 0 {
		t.Error("no crafted pattern exercised the rotated-anchor branch")
	}
	t.Logf("anchor rotated %d/4 times", rotations)
}

// TestScratchReuseAcrossGraphs moves one Scratch from a larger graph to
// a smaller one: the pinned-corner table shrinks while its backing array
// (and the previous trial's key list) stays — stale keys must be cleared
// against the full capacity, not the resliced view (regression: index
// out of range in pinnedBuf).
func TestScratchReuseAcrossGraphs(t *testing.T) {
	big := mustGraph(t, Params{D: 2, W: 6, Pitch: 18, Scale: 2})
	small := mustGraph(t, testParams2D())
	sc := NewScratch()
	// Fault in the last slab and last column tile of the big graph, so
	// the recorded pinned keys sit near the top of the big table.
	faults := fault.NewSet(big.NumNodes())
	faults.Add(big.NodeIndex(big.P.M()-1, big.P.N()-40))
	if _, err := big.ContainTorus(faults, ExtractOptions{Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 4; seed++ {
		faults := fault.NewSet(small.NumNodes())
		faults.Bernoulli(rng.New(seed+3), 1e-5)
		runBoth(t, small, faults, sc, fmt.Sprintf("after-shrink seed=%d", seed))
	}
}

func TestEquivalenceRandom3D(t *testing.T) {
	if testing.Short() {
		t.Skip("9.4M-node instance")
	}
	g := mustGraph(t, Params{D: 3, W: 4, Pitch: 16, Scale: 1})
	sc := NewScratch()
	r := rng.New(77)
	for trial := 0; trial < 3; trial++ {
		faults := fault.NewSet(g.NumNodes())
		for i := 0; i < 2+trial; i++ {
			faults.Add(r.Intn(g.NumNodes()))
		}
		runBoth(t, g, faults, sc, fmt.Sprintf("d=3 trial=%d", trial))
	}
	// Box extension in 3-D: fault on a slab's first row.
	faults := fault.NewSet(g.NumNodes())
	faults.Add(g.NodeIndex(3*g.P.Tile(), 12345))
	runBoth(t, g, faults, sc, "d=3 box-extension")
}

// TestParallelDeterminismEquivalence runs the delta engine on the parallel
// engine (the name keeps it inside CI's -race determinism sweep): the
// committed survival count must be identical across worker counts and
// equal to a serial dense-pipeline replay of the same trial streams.
func TestParallelDeterminismEquivalence(t *testing.T) {
	g := mustGraph(t, testParams2D())
	prob := 20 * g.P.TheoremFailureProb()
	const trials = 48
	const rootSeed = 99
	trial := func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
		sc := scratch.(*Scratch)
		faults := sc.Faults(g.NumNodes())
		faults.Bernoulli(stream, prob)
		if _, err := g.ContainTorus(faults, ExtractOptions{Scratch: sc}); err != nil {
			var ue *UnhealthyError
			if errors.As(err, &ue) {
				return stats.Failure, nil
			}
			return stats.Failure, err
		}
		return stats.Success, nil
	}
	want := -1
	for _, workers := range []int{1, 4} {
		rep, err := parallel.Run(trials, rootSeed, parallel.Options{
			Workers:    workers,
			NewScratch: func() any { return NewScratch() },
		}, trial)
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = rep.Successes
		} else if rep.Successes != want {
			t.Fatalf("workers=%d: %d successes, want %d", workers, rep.Successes, want)
		}
	}
	dense := 0
	for tr := 0; tr < trials; tr++ {
		faults := fault.NewSet(g.NumNodes())
		faults.Bernoulli(rng.NewPCG(rootSeed, uint64(tr)), prob)
		_, err := g.ContainTorus(faults, ExtractOptions{Dense: true})
		if err == nil {
			dense++
			continue
		}
		var ue *UnhealthyError
		if !errors.As(err, &ue) {
			t.Fatalf("dense trial %d: %v", tr, err)
		}
	}
	if dense != want {
		t.Fatalf("survival count: fast %d, dense %d", want, dense)
	}
}
