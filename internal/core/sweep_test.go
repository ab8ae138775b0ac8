package core

import (
	"errors"
	"fmt"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// sweepRates is the E2-shaped 9-rung ladder used throughout the sweep
// tests: multiples of the theorem probability from well below threshold
// to deep collapse.
func sweepRates(g *Graph) []float64 {
	pThm := g.P.TheoremFailureProb()
	mults := []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250}
	out := make([]float64, len(mults))
	for i, m := range mults {
		out[i] = pThm * m
	}
	return out
}

// TestSweepLadderEquivalence walks coupled 9-rung ladders across many
// trial streams and pins every rung's result to the dense pipeline —
// the golden test of the incremental placement/extraction/verification
// reuse between nested fault sets.
func TestSweepLadderEquivalence(t *testing.T) {
	g := mustGraph(t, testParams2D())
	rates := sweepRates(g)
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	var added []int
	for seed := uint64(0); seed < 12; seed++ {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		stream := rng.NewPCG(seed, 1)
		prev := 0.0
		for r, rate := range rates {
			var err error
			added, err = faults.Extend(stream, prev, rate, added[:0])
			if err != nil {
				t.Fatal(err)
			}
			ses.NoteAdded(added)
			prev = rate
			evalSessionBoth(t, g, ses, faults, fmt.Sprintf("seed=%d rung=%d (%d faults)", seed, r, faults.Count()))
		}
	}
}

// TestSweepSkippedRungEquivalence checks the contract the curve engine's
// per-rung early stopping relies on: evaluating only a subset of the
// rungs must leave the evaluated rungs' results bit-identical to a full
// walk, because each Eval is bit-exact regardless of the previous
// evaluation point.
func TestSweepSkippedRungEquivalence(t *testing.T) {
	g := mustGraph(t, testParams2D())
	rates := sweepRates(g)
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	var added []int
	for seed := uint64(100); seed < 106; seed++ {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		stream := rng.NewPCG(seed, 1)
		prev := 0.0
		for r, rate := range rates {
			var err error
			added, err = faults.Extend(stream, prev, rate, added[:0])
			if err != nil {
				t.Fatal(err)
			}
			ses.NoteAdded(added)
			prev = rate
			if r%2 == 1 {
				continue // skipped rung: sampling advanced, pipeline not run
			}
			evalSessionBoth(t, g, ses, faults, fmt.Sprintf("skip seed=%d rung=%d", seed, r))
		}
	}
}

// TestSweepCraftedTransitions drives rung transitions that target the
// incremental machinery's corner cases: a new box far from the old one
// (island between two changed regions on the d=2 column cycle), growth
// that merges two boxes, a fault added on an already-masked row (bands
// unchanged, fault check only), and a change touching the anchor
// column 0.
func TestSweepCraftedTransitions(t *testing.T) {
	g := mustGraph(t, testParams2D())
	tile := g.P.Tile()
	n := g.P.N()
	cases := []struct {
		label string
		rungs [][]int // cumulative fault nodes added per rung
	}{
		{"two-boxes-then-island-check", [][]int{
			{g.NodeIndex(100, 100)},
			{g.NodeIndex(400, 300)},
			{g.NodeIndex(250, 200)},
		}},
		{"merge", [][]int{
			{g.NodeIndex(100, 100)},
			{g.NodeIndex(100+tile, 100+tile)},
			{g.NodeIndex(100, 100+2*tile)},
		}},
		{"same-row-refault", [][]int{
			{g.NodeIndex(100, 100)},
			{g.NodeIndex(100, 101)}, // same tile, same masked row region
			{g.NodeIndex(100, 100+1)},
		}},
		{"anchor-touch", [][]int{
			{g.NodeIndex(200, 200)},
			{g.NodeIndex(300, 0)},
			{g.NodeIndex(300, n-1)},
		}},
		{"extension-then-growth", [][]int{
			{g.NodeIndex(2*tile, 200)}, // forces box extension
			{g.NodeIndex(2*tile+3, 200)},
			{g.NodeIndex(5*tile, 40)},
		}},
	}
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	for _, c := range cases {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		for r, nodes := range c.rungs {
			for _, u := range nodes {
				faults.Add(u)
			}
			ses.NoteAdded(nodes)
			evalSessionBoth(t, g, ses, faults, fmt.Sprintf("%s rung=%d", c.label, r))
		}
	}
}

// TestSweepNonMonotone drives Eval with a shrinking then shifting fault
// set: nothing in the diff machinery assumes nested rungs, and a column
// whose vector returns to the default base must restore its embedding
// slice (the oldDev path). This is the access pattern a coupled
// bisection would generate.
func TestSweepNonMonotone(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	ses.Reset()
	x := g.NodeIndex(100, 100)
	y := g.NodeIndex(400, 300)
	steps := []struct {
		label string
		nodes []int
	}{
		{"both", []int{x, y}},
		{"drop-x", []int{y}},   // x's footprint returns to defaults
		{"swap", []int{x}},     // y's returns, x's comes back
		{"empty", nil},         // everything back to the template
		{"again", []int{x, y}}, // and forward again
	}
	for _, s := range steps {
		faults := fault.NewSet(g.NumNodes())
		for _, u := range s.nodes {
			faults.Add(u)
		}
		ses.NoteAdded(s.nodes)
		evalSessionBoth(t, g, ses, faults, "non-monotone "+s.label)
	}
}

// TestSweepTrialReuseAcrossTrials runs several coupled trials back to
// back on one Session: the Reset + inter-trial restore path must leave
// no residue from the previous trial's ladder.
func TestSweepTrialReuseAcrossTrials(t *testing.T) {
	g := mustGraph(t, testParams2D())
	rates := sweepRates(g)
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	var added []int
	for trial := uint64(0); trial < 6; trial++ {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		stream := rng.NewPCG(7, trial)
		prev := 0.0
		for r, rate := range rates {
			var err error
			added, err = faults.Extend(stream, prev, rate, added[:0])
			if err != nil {
				t.Fatal(err)
			}
			ses.NoteAdded(added)
			prev = rate
			if r == 4 || r == 8 {
				// Only spot-check two rungs per trial; the cross-trial state
				// reuse is what is under test here.
				evalSessionBoth(t, g, ses, faults, fmt.Sprintf("trial=%d rung=%d", trial, r))
			} else if _, err := ses.Eval(faults); err != nil {
				var ue *UnhealthyError
				if !errors.As(err, &ue) {
					t.Fatalf("trial=%d rung=%d: %v", trial, r, err)
				}
			}
		}
	}
}

// TestSweepFullFootprint pins the full-footprint mode (no clean column
// anywhere): dense equivalence at a rate whose boxes cover every column
// tile.
func TestSweepFullFootprint(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	full := 0
	for seed := uint64(0); seed < 10; seed++ {
		faults := fault.NewSet(g.NumNodes())
		faults.Bernoulli(rng.New(9000+seed), 4e-5)
		resFast, errFast := g.ContainTorus(faults, ExtractOptions{Scratch: sc})
		resDense, errDense := g.ContainTorus(faults, ExtractOptions{Dense: true})
		if (errFast == nil) != (errDense == nil) {
			t.Fatalf("seed=%d: outcome mismatch: fast %v dense %v", seed, errFast, errDense)
		}
		if errFast != nil {
			continue
		}
		if len(resFast.Bands.DirtyColumns()) == g.NumCols {
			full++
		}
		for i := range resDense.Embedding.Map {
			if resDense.Embedding.Map[i] != resFast.Embedding.Map[i] {
				t.Fatalf("seed=%d: embedding differs at %d", seed, i)
			}
		}
	}
	if full == 0 {
		t.Error("no seed produced a full-footprint trial; raise the rate")
	}
}
