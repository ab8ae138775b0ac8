package core

import (
	"slices"
	"testing"
)

// TestHotPathAllocs is the runtime counterpart of the hotpath analyzer
// (internal/analysis/hotpath) for the core trial loop: once the scratch
// is warm, the //ftnet:hotpath-annotated placement, transfer,
// verification and map-sweep leaves, and Eval's map sync, must run
// allocation-free.
// AllocsPerRun and the static rule cross-check each other — an
// allocation snuck past one is still caught by the other.
func TestHotPathAllocs(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch(1)
	ses := g.NewSession(sc, ExtractOptions{})
	faults := sc.Faults(g.NumNodes())
	faults.Add(g.NumNodes() / 2)
	res, err := ses.Eval(faults)
	if err != nil {
		t.Fatalf("warmup Eval: %v", err)
	}
	bs := res.Bands
	tpl, err := g.template()
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	// One box matches the committed one (the footprint-copy callback), one
	// is new (the re-interpolation callback, which drives colEval.setColumn
	// and colEval.evalSlab over every footprint column), so a zero here
	// pins all four.
	faults.Add(g.NodeIndex(100, 100))
	boxes, _, err := g.buildBoxes(faults, sc)
	if err != nil {
		t.Fatalf("buildBoxes: %v", err)
	}
	if len(boxes) != 2 {
		t.Fatalf("got %d fault boxes, want 2", len(boxes))
	}
	target := ses.bsA
	if ses.cur == ses.bsA {
		target = ses.bsB
	}
	if _, err := ses.interpolateDelta(boxes, tpl, target); err != nil {
		t.Fatalf("interpolateDelta: %v", err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := ses.interpolateDelta(boxes, tpl, target); err != nil {
			t.Fatalf("interpolateDelta: %v", err)
		}
	}); a > 0 {
		t.Errorf("interpolateDelta: %v allocs/op, want 0", a)
	}

	n := g.P.N()
	dst := make([]int32, n)
	dev := make([]bool, g.NumCols)
	if err := g.transferFast(bs, tpl.defaultRows, sc, 0, 1, ses.rowmap[0], dst, dev); err != nil {
		t.Fatalf("transferFast: %v", err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := g.transferFast(bs, tpl.defaultRows, sc, 0, 1, ses.rowmap[0], dst, dev); err != nil {
			t.Fatalf("transferFast: %v", err)
		}
	}); a > 0 {
		t.Errorf("transferFast: %v allocs/op, want 0", a)
	}

	skip := func(zn int) bool { return false }
	if a := testing.AllocsPerRun(50, func() {
		if err := ses.verifyColumn(faults, 0, true, skip); err != nil {
			t.Fatalf("verifyColumn: %v", err)
		}
	}); a > 0 {
		t.Errorf("verifyColumn: %v allocs/op, want 0", a)
	}

	// The row-major map sweeps, over the columns the warmup re-derived:
	// rewriting them from their own vectors leaves the map in sync.
	cols := append([]int32(nil), ses.recomp...)
	slices.Sort(cols)
	if a := testing.AllocsPerRun(20, func() {
		writeColumns(ses.emb.Map, g.NumCols, n, cols, ses.rowmap)
	}); a > 0 {
		t.Errorf("writeColumns: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if j, z := firstUnsynced(ses.emb.Map, g.NumCols, n, cols, ses.rowmap); z >= 0 {
			t.Fatalf("firstUnsynced: guest node (%d,%d) out of sync", j, z)
		}
	}); a > 0 {
		t.Errorf("firstUnsynced: %v allocs/op, want 0", a)
	}

	// The warm map sync: the same columns marked stale, rewritten, and
	// the warmup's verify set swept.
	if a := testing.AllocsPerRun(20, func() {
		for _, z := range cols {
			ses.markStale(z)
		}
		if err := ses.syncMap(tpl); err != nil {
			t.Fatalf("syncMap: %v", err)
		}
	}); a > 0 {
		t.Errorf("syncMap: %v allocs/op, want 0", a)
	}
}
