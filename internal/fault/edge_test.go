package fault

import (
	"testing"

	"ftnet/internal/rng"
)

// randomEdges draws k distinct random edges over n nodes (arbitrary
// endpoint pairs — the set layer does not know adjacency).
func randomEdges(r rng.Source, n, k int) []Edge {
	seen := map[Edge]bool{}
	out := make([]Edge, 0, k)
	for len(out) < k {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		e := CanonEdge(u, v)
		if seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

func shuffleEdges(r rng.Source, edges []Edge) []Edge {
	out := append([]Edge(nil), edges...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet()
	if s.Count() != 0 || s.Has(1, 2) {
		t.Fatal("fresh set not empty")
	}
	if !s.Add(5, 3) {
		t.Fatal("first Add reported no change")
	}
	if s.Add(3, 5) {
		t.Fatal("Add of the same edge (reversed order) reported a change")
	}
	if !s.Has(3, 5) || !s.Has(5, 3) {
		t.Fatal("Has must accept either endpoint order")
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
	if !s.Remove(5, 3) {
		t.Fatal("Remove reported no change")
	}
	if s.Remove(5, 3) {
		t.Fatal("second Remove reported a change")
	}
	if s.Count() != 0 {
		t.Fatalf("Count after remove = %d, want 0", s.Count())
	}
}

func TestEdgeSetSliceSorted(t *testing.T) {
	r := rng.New(11)
	s := NewEdgeSet()
	for _, e := range randomEdges(r, 500, 64) {
		s.Add(e.V, e.U) // reversed on purpose; canonicalization is the set's job
	}
	sl := s.Slice()
	if len(sl) != s.Count() {
		t.Fatalf("Slice len %d != Count %d", len(sl), s.Count())
	}
	for i, e := range sl {
		if e.U >= e.V {
			t.Fatalf("edge %v not canonical", e)
		}
		if i > 0 {
			p := sl[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatalf("Slice not strictly sorted at %d: %v then %v", i, p, e)
			}
		}
	}
}

// TestChargerOrderIndependence is the charging pass's core property:
// reporting the same node and edge faults in any interleaved order
// produces the identical effective (charged) node set. The effective set
// is what the placement pipeline evaluates, so identical effective sets
// mean bit-identical embeddings (the pipeline is deterministic).
func TestChargerOrderIndependence(t *testing.T) {
	const n = 2000
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		nodes := make([]int, 0, 30)
		for len(nodes) < 30 {
			nodes = append(nodes, r.Intn(n))
		}
		edges := randomEdges(r, n, 40)

		var ref []int
		for perm := 0; perm < 5; perm++ {
			c := NewCharger(n)
			// Interleave node and edge mutations in a fresh random order.
			type op struct {
				node int
				edge Edge
				isE  bool
			}
			ops := make([]op, 0, len(nodes)+len(edges))
			for _, v := range nodes {
				ops = append(ops, op{node: v})
			}
			for _, e := range shuffleEdges(r, edges) {
				if r.Intn(2) == 0 {
					e.U, e.V = e.V, e.U // either endpoint order must work
				}
				ops = append(ops, op{edge: e, isE: true})
			}
			for i := len(ops) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				ops[i], ops[j] = ops[j], ops[i]
			}
			for _, o := range ops {
				if o.isE {
					c.AddEdge(o.edge.U, o.edge.V)
				} else {
					c.AddNode(o.node)
				}
			}
			got := c.Effective().Slice()
			if perm == 0 {
				ref = got
				// The incremental charger must agree with the batch pass.
				batch := ChargeEdges(c.Nodes(), c.Edges().Slice()).Slice()
				if !intsEq(got, batch) {
					t.Fatalf("trial %d: incremental effective %v != batch charge %v", trial, got, batch)
				}
				continue
			}
			if !intsEq(got, ref) {
				t.Fatalf("trial %d perm %d: effective set depends on mutation order", trial, perm)
			}
		}
	}
}

// TestChargerAddClearRoundTrip mirrors fault.Set's add-then-clear
// round-trip: applying a mutation sequence and then undoing it in a
// different order returns the charger (node, edge, and effective sets)
// to its starting state, with every reported effective delta consistent.
func TestChargerAddClearRoundTrip(t *testing.T) {
	const n = 1000
	r := rng.New(7)
	c := NewCharger(n)

	// Seed a baseline population that must survive the round trip.
	base := NewSet(n)
	for i := 0; i < 10; i++ {
		v := r.Intn(n)
		c.AddNode(v)
		base.Add(v)
	}
	baseEdges := randomEdges(r, n, 12)
	for _, e := range baseEdges {
		c.AddEdge(e.U, e.V)
	}
	want := c.Effective().Slice()
	wantEdges := c.Edges().Count()
	wantNodes := c.Nodes().Count()

	// Shadow set replays every reported effective delta; it must track
	// Effective() exactly through the whole churn.
	shadow := c.Effective().Clone()
	apply := func(eff int, add bool) {
		if eff < 0 {
			return
		}
		if add {
			shadow.Add(eff)
		} else {
			shadow.Remove(eff)
		}
	}

	nodes := make([]int, 0, 25)
	for len(nodes) < 25 {
		nodes = append(nodes, r.Intn(n))
	}
	edges := randomEdges(r, n, 30)
	for _, v := range nodes {
		_, eff := c.AddNode(v)
		apply(eff, true)
	}
	for _, e := range edges {
		_, eff := c.AddEdge(e.U, e.V)
		apply(eff, true)
	}
	if !intsEq(shadow.Slice(), c.Effective().Slice()) {
		t.Fatal("effective deltas out of sync with Effective() after adds")
	}

	// Undo in a different order (edges first, shuffled), skipping
	// anything that was part of the baseline or a duplicate report.
	for _, e := range shuffleEdges(r, edges) {
		dup := false
		for _, b := range baseEdges {
			if b == e {
				dup = true
			}
		}
		if dup {
			continue
		}
		_, eff := c.ClearEdge(e.V, e.U)
		apply(eff, false)
	}
	cleared := map[int]bool{}
	for i := len(nodes) - 1; i >= 0; i-- {
		v := nodes[i]
		if base.Has(v) || cleared[v] {
			continue
		}
		cleared[v] = true
		_, eff := c.ClearNode(v)
		apply(eff, false)
	}

	if got := c.Effective().Slice(); !intsEq(got, want) {
		t.Fatalf("round trip changed the effective set:\n got %v\nwant %v", got, want)
	}
	if c.Edges().Count() != wantEdges || c.Nodes().Count() != wantNodes {
		t.Fatalf("round trip changed set sizes: edges %d want %d, nodes %d want %d",
			c.Edges().Count(), wantEdges, c.Nodes().Count(), wantNodes)
	}
	if !intsEq(shadow.Slice(), c.Effective().Slice()) {
		t.Fatal("effective deltas out of sync with Effective() after clears")
	}
}

// TestChargerRefcounts pins the two subtle clear cases: repairing one of
// two edges charged to the same node keeps the node effectively faulty,
// and repairing an edge charged to a user-faulty node never un-faults it.
func TestChargerRefcounts(t *testing.T) {
	c := NewCharger(100)

	// Two edges charged to node 3.
	if _, eff := c.AddEdge(3, 7); eff != 3 {
		t.Fatalf("first edge: eff = %d, want 3", eff)
	}
	if _, eff := c.AddEdge(3, 9); eff != -1 {
		t.Fatalf("second edge on same charge: eff = %d, want -1", eff)
	}
	if _, eff := c.ClearEdge(3, 7); eff != -1 {
		t.Fatal("clearing one of two charged edges must not un-fault the node")
	}
	if !c.Effective().Has(3) {
		t.Fatal("node 3 lost effective fault while still charged")
	}
	if _, eff := c.ClearEdge(3, 9); eff != 3 {
		t.Fatal("clearing the last charged edge must un-fault the node")
	}

	// Edge charged to a user-faulty node.
	c.AddNode(5)
	if _, eff := c.AddEdge(5, 8); eff != -1 {
		t.Fatal("edge charged to an already-faulty node must not re-add it")
	}
	if _, eff := c.ClearEdge(5, 8); eff != -1 {
		t.Fatal("clearing an edge charged to a user-faulty node must not un-fault it")
	}
	if !c.Effective().Has(5) {
		t.Fatal("user node fault lost by an edge repair")
	}
	// And the mirror: node cleared while an edge still charges it.
	c.AddEdge(5, 8)
	if _, eff := c.ClearNode(5); eff != -1 {
		t.Fatal("clearing a node still charged by an edge must keep it effective")
	}
	if !c.Effective().Has(5) {
		t.Fatal("charged node lost effective fault on user repair")
	}
	if _, eff := c.ClearEdge(5, 8); eff != 5 {
		t.Fatal("last charge gone and node not user-faulty: must clear")
	}
	if c.Effective().Count() != 0 {
		t.Fatalf("effective set not empty at the end: %v", c.Effective().Slice())
	}
}

func intsEq(a, b []int) bool {
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
