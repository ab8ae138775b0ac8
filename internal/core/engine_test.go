package core

import (
	"slices"
	"testing"
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
	if res.Bands.DirtyCount() != 0 || len(sc.prevDirty) != 0 {
		t.Fatalf("fault-free eval left %d dirty columns, %d to restore", res.Bands.DirtyCount(), len(sc.prevDirty))
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
