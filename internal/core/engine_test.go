package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
)

// Invariants of the single evaluation engine, read off the session's own
// bookkeeping: recomp (columns whose vector a step re-derived) and verify
// (columns a step re-certified). They turn the O(footprint) claims into
// assertions instead of benchmark folklore. The rotation invariant —
// warm after the rotating commit, a column delta on the next step — is
// TestSessionRearmAfterRotation.

// TestEngineFaultFreeEvalIsFree: after a Reset, a fault-free Eval is
// commit zero itself — it re-derives and re-verifies nothing, even when
// the previous trial left a footprint to restore.
func TestEngineFaultFreeEvalIsFree(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	faults.Add(g.NodeIndex(300, 250))
	if _, err := ses.Eval(faults); err != nil {
		t.Fatal(err)
	}
	if len(ses.recomp) == 0 {
		t.Fatal("a lone fault re-derived no column")
	}

	ses.Reset()
	res, err := ses.Eval(sc.Faults(g.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ses.changed) != 0 || len(ses.recomp) != 0 || len(ses.verify) != 0 {
		t.Fatalf("fault-free eval after Reset: %d changed, %d re-derived, %d verified; want 0",
			len(ses.changed), len(ses.recomp), len(ses.verify))
	}
	if len(res.Bands.DirtyColumns()) != 0 || len(ses.prevDirty) != 0 {
		t.Fatalf("fault-free eval left %d dirty columns, %d to restore", len(res.Bands.DirtyColumns()), len(ses.prevDirty))
	}
	if _, full := ses.DrainDelta(); !full {
		t.Fatal("the first eval after a Reset must drain a full delta")
	}
}

// TestEngineLoneFaultStaysInFootprint: a lone interior fault re-derives
// and re-verifies only columns inside its box footprint ±1 tile.
func TestEngineLoneFaultStaysInFootprint(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	faults.Add(g.NodeIndex(300, 250))
	if _, err := ses.Eval(faults); err != nil {
		t.Fatal(err)
	}
	boxes, _, err := g.buildBoxes(faults, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes, want 1", len(boxes))
	}
	var footprint []int
	d1 := g.P.D - 1
	starts, counts, coord := make([]int, d1), make([]int, d1), make([]int, d1)
	g.footprintColumns(boxes[0], starts, counts, coord, func(z int) { footprint = append(footprint, z) })
	if slices.Contains(footprint, 0) {
		t.Fatal("the fault's footprint reaches the anchor column; pick an interior fault")
	}
	if len(ses.recomp) == 0 {
		t.Fatal("a lone fault re-derived no column")
	}
	for _, list := range []struct {
		name string
		cols []int32
	}{{"re-derived", ses.recomp}, {"verified", ses.verify}} {
		for _, z := range list.cols {
			if !slices.Contains(footprint, int(z)) {
				t.Errorf("%s column %d lies outside the box footprint ±1 tile", list.name, z)
			}
		}
	}
}

// addNoted adds the fault at node (i, z) and reports it to the session.
func addNoted(g *Graph, ses *Session, faults *fault.Set, i, z int) {
	idx := g.NodeIndex(i, z)
	faults.Add(idx)
	ses.NoteAdded([]int{idx})
}

// TestEngineStampGenerationWraps: when the session's stamp generation
// wraps, the next Eval must still diff every dirty column. Counter -1
// makes the first bump 0, the stamp of every column never stamped, which
// would skip the new fault's whole footprint and leave the map stale.
func TestEngineStampGenerationWraps(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	addNoted(g, ses, faults, 300, 250)
	evalSessionBoth(t, g, ses, faults, "warm")
	ses.gen = -1
	// Another slab and column tile: no column of its footprint has been
	// stamped yet.
	addNoted(g, ses, faults, 60, 130)
	evalSessionBoth(t, g, ses, faults, "after the wrap")
}

// TestEngineRowStampGenerationWraps: a warm step whose verified columns
// unmask rows no earlier verified column held stays bit-identical to the
// dense oracle. The name predates the winding-count check, which keeps
// no per-row stamps to wrap.
func TestEngineRowStampGenerationWraps(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	addNoted(g, ses, faults, 300, 250)
	evalSessionBoth(t, g, ses, faults, "warm")
	if len(ses.verify) == 0 {
		t.Fatal("the warm eval verified no column")
	}
	// Another slab: its deviating columns unmask rows that no column
	// verified so far holds.
	addNoted(g, ses, faults, 60, 130)
	evalSessionBoth(t, g, ses, faults, "after the wrap")
	if len(ses.verify) == 0 {
		t.Fatal("the eval after the wrap verified no column")
	}
}

// TestEngineVerifyColumnRejects: verifyColumn's per-row pass rejects a
// corrupted row vector of a deviating column with an internal error. Each
// corruption targets one check of the winding argument:
//   - a repeated row, a zero step that the step rule rejects while the
//     vector still winds once;
//   - a vector that winds twice, every step a legal torus step or
//     vertical jump, so only the winding count sees the repeated rows;
//   - a backward step, which the engine never produces: the step rule
//     rejects it, and since it wraps past m the winding count does too.
//
// The pair checks are skipped and the fault check is off, so only the
// step rule and the winding count can fire.
func TestEngineVerifyColumnRejects(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	faults.Add(g.NodeIndex(300, 250))
	if _, err := ses.Eval(faults); err != nil {
		t.Fatal(err)
	}
	n, m, w := g.P.N(), g.P.M(), g.P.W
	z := -1
	for _, z32 := range ses.recomp {
		if ses.devCols[z32] {
			z = int(z32)
			break
		}
	}
	if z < 0 {
		t.Fatal("the fault left no deviating column")
	}
	rows := ses.rowmap[z]
	if &rows[0] != &ses.rowflat[z*n] {
		t.Fatalf("column %d's vector is not its rowflat slot", z)
	}
	skipAll := func(int) bool { return true }
	if err := ses.verifyColumn(faults, z, false, skipAll); err != nil {
		t.Fatalf("intact column %d: %v", z, err)
	}
	// A row followed by two plain torus steps, neither of them wrapping.
	i := 0
	for i < n-2 && (rows[i+1] != rows[i]+1 || rows[i+2] != rows[i]+2) {
		i++
	}
	if i == n-2 {
		t.Fatal("the column has no two consecutive plain steps")
	}
	orig := slices.Clone(rows)
	for _, c := range []struct {
		name    string
		corrupt func(r []int32)
	}{
		{"repeated row", func(r []int32) { r[i+1] = r[i] }},
		{"winds twice", func(r []int32) {
			// n + J·w = 2m with J jumps of w+1 and n-J plain steps.
			jumps := n/w + 2*g.P.K()
			v := int(r[0])
			for j := range r {
				r[j] = int32(v % m)
				if j < jumps {
					v += w + 1
				} else {
					v++
				}
			}
		}},
		{"backward step", func(r []int32) { r[i+2] = r[i] }},
	} {
		copy(rows, orig)
		c.corrupt(rows)
		if err := ses.verifyColumn(faults, z, false, skipAll); !fterr.Is(err, fterr.Internal) {
			t.Errorf("%s: verifyColumn = %v, want an internal error", c.name, err)
		}
	}
	copy(rows, orig)
	if err := ses.verifyColumn(faults, z, false, skipAll); err != nil {
		t.Fatalf("restored column %d: %v", z, err)
	}
}

// TestEngineDenseCallLeavesSessionAlone: a dense extraction on a
// session's scratch neither rewrites the map of the session's last
// Result nor costs the session its commit. The session's next warm step
// is bit-identical to the dense oracle and re-derives exactly the columns
// an undisturbed session re-derives.
func TestEngineDenseCallLeavesSessionAlone(t *testing.T) {
	g := mustGraph(t, testParams2D())
	first, second := g.NodeIndex(300, 250), g.NodeIndex(60, 130)
	warm := func(sc *Scratch) (*Session, *fault.Set, *Result) {
		ses := g.NewSession(sc, ExtractOptions{})
		faults := fault.NewSet(g.NumNodes())
		faults.Add(first)
		res, err := ses.Eval(faults)
		if err != nil {
			t.Fatal(err)
		}
		return ses, faults, res
	}

	sc := NewScratch()
	ses, faults, res := warm(sc)
	kept := slices.Clone(res.Embedding.Map)
	faults.Add(second)
	if _, err := g.ContainTorus(faults, ExtractOptions{Scratch: sc, Dense: true}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Embedding.Map, kept) {
		t.Error("a dense call on the session's scratch rewrote the map of the session's Result")
	}
	ses.NoteAdded([]int{second})
	evalSessionBoth(t, g, ses, faults, "warm step after a dense call")

	ref, refFaults, _ := warm(NewScratch())
	refFaults.Add(second)
	ref.NoteAdded([]int{second})
	if _, err := ref.Eval(refFaults); err != nil {
		t.Fatal(err)
	}
	if len(ref.recomp) == 0 {
		t.Fatal("the undisturbed step re-derived no column")
	}
	if !slices.Equal(ses.recomp, ref.recomp) {
		t.Errorf("the step after a dense call re-derived %d columns, an undisturbed session %d", len(ses.recomp), len(ref.recomp))
	}
}

// TestEngineSyncCheckFires: a verified column whose map entries disagree
// with its row vector fails the Eval. The column is re-checked without
// being re-derived (a noted fault membership change, same fault set), so
// only the map-vs-vector sweep can see the corrupted entry.
func TestEngineSyncCheckFires(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	faults.Add(g.NodeIndex(300, 250))
	if _, err := ses.Eval(faults); err != nil {
		t.Fatal(err)
	}
	z := -1
	for _, z32 := range ses.recomp {
		if ses.devCols[z32] {
			z = int(z32)
			break
		}
	}
	if z < 0 {
		t.Fatal("the fault left no deviating column")
	}
	j := g.P.N() / 2
	ses.emb.Map[j*g.NumCols+z] = int(ses.rowmap[z][(j+1)%g.P.N()])*g.NumCols + z
	ses.NoteAdded([]int{g.NodeIndex(0, z)})
	_, err := ses.Eval(faults)
	if len(ses.recomp) != 0 || !slices.Contains(ses.verify, int32(z)) {
		t.Fatalf("re-derived %v and verified %v; want column %d verified and none re-derived", ses.recomp, ses.verify, z)
	}
	if !fterr.Is(err, fterr.Internal) || !strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("Eval with a corrupted map entry: err = %v, want an internal out-of-sync error", err)
	}
}

// TestEngineColumnNeighborTable pins the column-adjacency table to the
// coordinate arithmetic it replaces: each column's row lists the +1 then
// the -1 neighbor along each column dimension in turn, and every listed
// pair is adjacent.
func TestEngineColumnNeighborTable(t *testing.T) {
	for _, p := range []Params{testParams2D(), {D: 3, W: 4, Pitch: 16, Scale: 1}} {
		g := mustGraph(t, p)
		coord := make([]int, len(g.ColShape))
		want := make([]int32, 0, 2*len(g.ColShape))
		for z := 0; z < g.NumCols; z++ {
			g.ColShape.Coord(z, coord)
			want = want[:0]
			for dim, side := range g.ColShape {
				orig := coord[dim]
				coord[dim] = grid.Add(orig, 1, side)
				want = append(want, int32(g.ColShape.Index(coord)))
				coord[dim] = grid.Sub(orig, 1, side)
				want = append(want, int32(g.ColShape.Index(coord)))
				coord[dim] = orig
			}
			got := g.columnNeighbors(z)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d column %d: neighbors %v, want %v", p.D, z, got, want)
			}
			for _, zn := range got {
				if !g.columnsAdjacent(z, int(zn)) {
					t.Fatalf("d=%d: columns %d and %d listed as neighbors but not adjacent", p.D, z, zn)
				}
			}
		}
	}
}

// TestEngineDeltaCandBounded: a session that is never drained — a
// Monte-Carlo worker's, or a facade session used only through Reembed —
// keeps its wire-delta candidates and its stale-column list within one
// entry per column, however many steps it runs. Each step toggles one
// fault, so every step re-derives the fault's footprint; every third
// step is an Eval and the rest are Checks, so both paths mark columns.
// One session is never drained (its delta stays full from the first
// step), the other is drained once after its first step (every later
// column is a candidate). Short mode runs a tenth of the steps.
func TestEngineDeltaCandBounded(t *testing.T) {
	g := mustGraph(t, testParams2DTight())
	faults := fault.NewSet(g.NumNodes())
	undrained := g.NewSession(NewScratch(), ExtractOptions{})
	drained := g.NewSession(NewScratch(), ExtractOptions{})
	u := []int{g.NodeIndex(g.P.M()/2, g.P.N()/2)}
	steps := 20000
	if testing.Short() {
		steps = 2000
	}
	for step := 0; step < steps; step++ {
		if faults.Has(u[0]) {
			faults.Remove(u[0])
		} else {
			faults.Add(u[0])
		}
		for _, ses := range []*Session{undrained, drained} {
			if faults.Has(u[0]) {
				ses.NoteAdded(u)
			} else {
				ses.NoteCleared(u)
			}
			var err error
			if step%3 == 0 {
				_, err = ses.Eval(faults)
			} else {
				err = ses.Check(faults)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if len(ses.deltaCand.cols) > g.NumCols || len(ses.stale.cols) > g.NumCols {
				t.Fatalf("step %d: %d delta candidates and %d stale columns on a %d-column host",
					step, len(ses.deltaCand.cols), len(ses.stale.cols), g.NumCols)
			}
		}
		if step == 0 {
			drained.DrainDelta()
		}
	}
	if len(undrained.deltaCand.cols) != 0 {
		t.Errorf("a session whose delta is full listed %d candidates", len(undrained.deltaCand.cols))
	}
	if len(drained.deltaCand.cols) == 0 {
		t.Error("the drained session listed no candidate after its drain")
	}
	evalSessionBoth(t, g, undrained, faults, "undrained, last step")
	evalSessionBoth(t, g, drained, faults, "drained once, last step")
}

// TestEngineChurnColsBounded: the churn list holds each column at most
// once, so it stays within one entry per column however many steps run
// without a successful incremental commit to empty it. One session is
// held beyond tolerance — five faults in rows 40-44 of column 10 cover
// every residue class mod W+1 — so each of its steps is rejected; a
// Dense session never commits incrementally. Each step toggles one
// fault. Short mode runs a tenth of the rejected steps.
func TestEngineChurnColsBounded(t *testing.T) {
	g := mustGraph(t, testParams2DTight())
	u := []int{g.NodeIndex(g.P.M()/2, g.P.N()/2)}
	toggle := func(ses *Session, faults *fault.Set) {
		if faults.Has(u[0]) {
			faults.Remove(u[0])
			ses.NoteCleared(u)
		} else {
			faults.Add(u[0])
			ses.NoteAdded(u)
		}
	}

	faults := fault.NewSet(g.NumNodes())
	rejected := g.NewSession(NewScratch(), ExtractOptions{})
	if err := rejected.Check(faults); err != nil {
		t.Fatal(err)
	}
	var killer []int
	for r := 40; r < 45; r++ {
		killer = append(killer, g.NodeIndex(r, 10))
		faults.Add(killer[len(killer)-1])
	}
	rejected.NoteAdded(killer)
	steps := 2000
	if testing.Short() {
		steps = 200
	}
	for step := 0; step < steps; step++ {
		toggle(rejected, faults)
		var ue *UnhealthyError
		if err := rejected.Check(faults); !errors.As(err, &ue) {
			t.Fatalf("rejected step %d: err = %v, want an UnhealthyError", step, err)
		}
		if n := len(rejected.churn.cols); n > g.NumCols {
			t.Fatalf("rejected step %d: %d churn entries on a %d-column host", step, n, g.NumCols)
		}
	}
	faults.RemoveAll(killer)
	rejected.NoteCleared(killer)
	evalSessionBoth(t, g, rejected, faults, "healed after rejected steps")

	faults = fault.NewSet(g.NumNodes())
	dense := g.NewSession(NewScratch(), ExtractOptions{Dense: true})
	for step := 0; step < 300; step++ {
		toggle(dense, faults)
		if err := dense.Check(faults); err != nil {
			t.Fatalf("dense step %d: %v", step, err)
		}
		if n := len(dense.churn.cols); n > g.NumCols {
			t.Fatalf("dense step %d: %d churn entries on a %d-column host", step, n, g.NumCols)
		}
	}
	evalSessionBoth(t, g, dense, faults, "dense, last step")
}

// TestEngineCheckHoldsNoMap: a session driven only by Check and Reset
// never allocates its embedding map, and the first Eval after any such
// run builds the map bit-identical to the dense pipeline.
func TestEngineCheckHoldsNoMap(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	for i, u := range []int{g.NodeIndex(300, 250), g.NodeIndex(60, 130), g.NodeIndex(400, 20)} {
		if i == 1 {
			ses.Reset()
		}
		faults.Add(u)
		ses.NoteAdded([]int{u})
		if err := ses.Check(faults); err != nil {
			t.Fatal(err)
		}
		if len(ses.recomp) == 0 {
			t.Fatalf("check %d re-derived no column", i)
		}
	}
	if ses.emb != nil {
		t.Fatal("a session driven only by Check and Reset allocated its map")
	}
	if len(ses.stale.cols) == 0 {
		t.Fatal("the checks left no stale column for the first map sync")
	}
	if _, full := ses.DrainDelta(); !full {
		t.Fatal("the checks since the Reset must drain a full delta")
	}
	evalSessionBoth(t, g, ses, faults, "first Eval after checks")
	if len(ses.stale.cols) != 0 {
		t.Fatalf("the map sync left %d stale columns", len(ses.stale.cols))
	}
	if _, full := ses.DrainDelta(); !full {
		t.Fatal("the map sync that allocated the map must drain a full delta")
	}
}

// TestSessionAblatedGraphMatchesDense: on a graph with an edge class
// removed, a session's Eval, and its Check after a Reset, fail exactly
// when the dense pipeline does, and never as an *UnhealthyError. Without
// vertical jumps the default embedding does not verify, so the template
// is marked failed and every step runs the dense pipeline itself: the
// errors then read the same. Without diagonal jumps the template holds,
// and the session's own verifier rejects the bent rows.
func TestSessionAblatedGraphMatchesDense(t *testing.T) {
	cases := []struct {
		name         string
		noVJ, noDJ   bool
		fault        bool
		denseRunsAll bool
	}{
		{"no vertical jumps, no faults", true, false, false, true},
		{"no diagonal jumps, one fault", false, true, true, false},
		{"no vertical jumps, one fault", true, false, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := mustGraph(t, testParams2D())
			g.DisableVJump, g.DisableDJump = c.noVJ, c.noDJ
			faults := fault.NewSet(g.NumNodes())
			if c.fault {
				faults.Add(g.NodeIndex(100, 100))
			}
			var ue *UnhealthyError
			_, denseErr := g.ContainTorus(faults, ExtractOptions{})
			if errors.As(denseErr, &ue) {
				t.Fatalf("dense: an ablated graph reported an unhealthy fault set: %v", denseErr)
			}
			ses := g.NewSession(NewScratch(), ExtractOptions{})
			_, evalErr := ses.Eval(faults)
			ses.Reset()
			checkErr := ses.Check(faults)
			for _, step := range []struct {
				what string
				err  error
			}{{"Eval", evalErr}, {"Check", checkErr}} {
				if (step.err == nil) != (denseErr == nil) {
					t.Fatalf("%s: err = %v, dense err = %v", step.what, step.err, denseErr)
				}
				if errors.As(step.err, &ue) {
					t.Fatalf("%s: an ablated graph reported an unhealthy fault set: %v", step.what, step.err)
				}
				if c.denseRunsAll && step.err != nil && step.err.Error() != denseErr.Error() {
					t.Fatalf("%s: err = %q, want the dense pipeline's %q", step.what, step.err, denseErr)
				}
			}
		})
	}
}
