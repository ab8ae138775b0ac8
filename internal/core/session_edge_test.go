package core

import (
	"fmt"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// Golden equivalence suite for the edge-fault charging pass (Theorem 2's
// edge model): a mixed node+edge churn sequence driven through a
// fault.Charger and a Session must be bit-identical, at every step, to a
// dense from-scratch evaluation of the charged (effective) fault set —
// and the committed embedding must independently verify against the
// faulty edges as well, proving that avoiding every charged node really
// does avoid every faulty edge.

// randomHostEdge draws a uniformly random host edge: a uniform node and
// a uniform neighbor slot (the host degree is uniform, so after
// canonicalization every undirected edge has equal mass).
func randomHostEdge(r rng.Source, g *Graph, buf []int) (int, int, []int) {
	u := r.Intn(g.NumNodes())
	buf = g.Neighbors(u, buf[:0])
	return u, buf[r.Intn(len(buf))], buf
}

// edgeChurnStep mutates the charger by one random mixed move and reports
// the effective deltas to the session. Returns a label for failures.
func edgeChurnStep(r rng.Source, g *Graph, c *fault.Charger, ses *Session, nbuf *[]int, eff *[]int) string {
	*eff = (*eff)[:0]
	kind := r.Intn(4)
	// Degenerate cases fall forward to an add of the same flavor.
	switch {
	case kind == 1 && c.Nodes().Count() == 0:
		kind = 0
	case kind == 3 && c.Edges().Count() == 0:
		kind = 2
	}
	switch kind {
	case 0: // add a batch of node faults
		k := 1 + r.Intn(4)
		for i := 0; i < k; i++ {
			if _, e := c.AddNode(r.Intn(g.NumNodes())); e >= 0 {
				*eff = append(*eff, e)
			}
		}
		ses.NoteAdded(*eff)
		return fmt.Sprintf("add-nodes %d", len(*eff))
	case 1: // clear a random known node fault
		v := c.Nodes().Nth(r.Intn(c.Nodes().Count()))
		if _, e := c.ClearNode(v); e >= 0 {
			*eff = append(*eff, e)
		}
		ses.NoteCleared(*eff)
		return fmt.Sprintf("clear-node %d", v)
	case 2: // add a batch of edge faults
		k := 1 + r.Intn(5)
		for i := 0; i < k; i++ {
			var u, v int
			u, v, *nbuf = randomHostEdge(r, g, *nbuf)
			if _, e := c.AddEdge(u, v); e >= 0 {
				*eff = append(*eff, e)
			}
		}
		ses.NoteAdded(*eff)
		return fmt.Sprintf("add-edges %d", len(*eff))
	default: // clear a random known edge fault
		ed := c.Edges().Nth(r.Intn(c.Edges().Count()))
		if _, e := c.ClearEdge(ed.U, ed.V); e >= 0 {
			*eff = append(*eff, e)
		}
		ses.NoteCleared(*eff)
		return fmt.Sprintf("clear-edge {%d,%d}", ed.U, ed.V)
	}
}

// evalSessionCharged compares one Session.Eval of the effective set
// against the dense pipeline, then re-verifies the committed embedding
// against the faulty edges as well.
func evalSessionCharged(t *testing.T, g *Graph, ses *Session, c *fault.Charger, scDense *Scratch, label string) {
	t.Helper()
	sessionDenseStep(t, g, ses, c.Effective(), scDense, label)
	res, err := ses.Eval(c.Effective())
	if err != nil {
		return // unhealthy episode; equivalence already checked above
	}
	if err := res.Embedding.Verify(g, c.Effective(), c.Edges().Has); err != nil {
		t.Fatalf("%s: embedding failed edge-aware verification: %v", label, err)
	}
}

// TestSessionEdgeChargingEquivalence2D: 12 seeds of mixed node+edge
// churn at d=2, every state bit-identical to the dense pipeline on the
// charged set and edge-fault-free under independent verification.
func TestSessionEdgeChargingEquivalence2D(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	scDense := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	var nbuf, eff []int
	for seed := uint64(0); seed < 12; seed++ {
		ses.Reset()
		c := fault.NewCharger(g.NumNodes())
		r := rng.NewPCG(8024, seed)
		for step := 0; step < 10; step++ {
			move := edgeChurnStep(r, g, c, ses, &nbuf, &eff)
			evalSessionCharged(t, g, ses, c, scDense,
				fmt.Sprintf("seed=%d step=%d (%s, %d nodes + %d edges)",
					seed, step, move, c.Nodes().Count(), c.Edges().Count()))
		}
	}
}

// TestSessionEdgeChargingEquivalence3D is the same suite on the
// 9.4M-node d=3 host (fewer steps; the dense comparator dominates).
func TestSessionEdgeChargingEquivalence3D(t *testing.T) {
	if testing.Short() {
		t.Skip("9.4M-node instance")
	}
	g := mustGraph(t, Params{D: 3, W: 4, Pitch: 16, Scale: 1})
	sc := NewScratch()
	scDense := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	var nbuf, eff []int
	for seed := uint64(0); seed < 6; seed++ {
		ses.Reset()
		c := fault.NewCharger(g.NumNodes())
		r := rng.NewPCG(8324, seed)
		for step := 0; step < 3; step++ {
			move := edgeChurnStep(r, g, c, ses, &nbuf, &eff)
			evalSessionCharged(t, g, ses, c, scDense,
				fmt.Sprintf("d=3 seed=%d step=%d (%s)", seed, step, move))
		}
	}
}

// TestSessionEdgeOrderIndependence drives the same edge-fault set into
// two sessions in different report orders (and endpoint orientations):
// the committed embeddings must be bit-identical, because the charged
// set is a pure function of the fault sets.
func TestSessionEdgeOrderIndependence(t *testing.T) {
	g := mustGraph(t, testParams2D())
	r := rng.NewPCG(9024, 1)
	var nbuf []int
	edges := make([]fault.Edge, 0, 6)
	seen := map[fault.Edge]bool{}
	for len(edges) < 6 {
		var u, v int
		u, v, nbuf = randomHostEdge(r, g, nbuf)
		e := fault.CanonEdge(u, v)
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	nodes := []int{g.NodeIndex(40, 40), g.NodeIndex(300, 120)}

	run := func(order []fault.Edge, flip bool) []int {
		sc := NewScratch()
		ses := g.NewSession(sc, ExtractOptions{})
		c := fault.NewCharger(g.NumNodes())
		var eff []int
		for _, v := range nodes {
			if _, e := c.AddNode(v); e >= 0 {
				eff = append(eff, e)
			}
		}
		for _, ed := range order {
			u, v := ed.U, ed.V
			if flip {
				u, v = v, u
			}
			if _, e := c.AddEdge(u, v); e >= 0 {
				eff = append(eff, e)
			}
		}
		ses.NoteAdded(eff)
		res, err := ses.Eval(c.Effective())
		if err != nil {
			t.Fatalf("eval failed: %v", err)
		}
		return append([]int(nil), res.Embedding.Map...)
	}

	ref := run(edges, false)
	rev := make([]fault.Edge, len(edges))
	for i, e := range edges {
		rev[len(edges)-1-i] = e
	}
	if got := run(rev, true); !sliceEq(ref, got) {
		t.Fatal("embedding depends on edge-fault report order")
	}
}

func sliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
