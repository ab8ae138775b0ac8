package core

import (
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
	sc := NewScratch(1)
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
	if res.Bands.DirtyCount() != 0 || len(ses.prevDirty) != 0 {
		t.Fatalf("fault-free eval left %d dirty columns, %d to restore", res.Bands.DirtyCount(), len(ses.prevDirty))
	}
	if _, full := ses.DrainDelta(); !full {
		t.Fatal("the first eval after a Reset must drain a full delta")
	}
}

// TestEngineLoneFaultStaysInFootprint: a lone interior fault re-derives
// and re-verifies only columns inside its box footprint ±1 tile.
func TestEngineLoneFaultStaysInFootprint(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch(1)
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
	starts, counts, coord := sc.footprintBufs(g.P.D - 1)
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
	sc := NewScratch(1)
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

// TestEngineRowStampGenerationWraps: the same for the verifier's per-row
// stamps. Counter -1 makes the first verified column's generation 0, the
// stamp of every row no verified column has held yet, so an injective
// column would be reported as not injective.
func TestEngineRowStampGenerationWraps(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch(1)
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	addNoted(g, ses, faults, 300, 250)
	evalSessionBoth(t, g, ses, faults, "warm")
	if len(ses.verify) == 0 {
		t.Fatal("the warm eval verified no column")
	}
	ses.colGen = -1
	// Another slab: its deviating columns unmask rows that no column
	// verified so far holds.
	addNoted(g, ses, faults, 60, 130)
	evalSessionBoth(t, g, ses, faults, "after the wrap")
	if len(ses.verify) == 0 {
		t.Fatal("the eval after the wrap verified no column")
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

	sc := NewScratch(1)
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

	ref, refFaults, _ := warm(NewScratch(1))
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
	sc := NewScratch(1)
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
	undrained := g.NewSession(NewScratch(1), ExtractOptions{})
	drained := g.NewSession(NewScratch(1), ExtractOptions{})
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
			if len(ses.deltaCand) > g.NumCols || len(ses.staleCols) > g.NumCols {
				t.Fatalf("step %d: %d delta candidates and %d stale columns on a %d-column host",
					step, len(ses.deltaCand), len(ses.staleCols), g.NumCols)
			}
		}
		if step == 0 {
			drained.DrainDelta()
		}
	}
	if len(undrained.deltaCand) != 0 {
		t.Errorf("a session whose delta is full listed %d candidates", len(undrained.deltaCand))
	}
	if len(drained.deltaCand) == 0 {
		t.Error("the drained session listed no candidate after its drain")
	}
	evalSessionBoth(t, g, undrained, faults, "undrained, last step")
	evalSessionBoth(t, g, drained, faults, "drained once, last step")
}

// TestEngineCheckHoldsNoMap: a session driven only by Check and Reset
// never allocates its embedding map, and the first Eval after any such
// run builds the map bit-identical to the dense pipeline.
func TestEngineCheckHoldsNoMap(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch(1)
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
	if len(ses.staleCols) == 0 {
		t.Fatal("the checks left no stale column for the first map sync")
	}
	if _, full := ses.DrainDelta(); !full {
		t.Fatal("the checks since the Reset must drain a full delta")
	}
	evalSessionBoth(t, g, ses, faults, "first Eval after checks")
	if len(ses.staleCols) != 0 {
		t.Fatalf("the map sync left %d stale columns", len(ses.staleCols))
	}
	if _, full := ses.DrainDelta(); !full {
		t.Fatal("the map sync that allocated the map must drain a full delta")
	}
}
