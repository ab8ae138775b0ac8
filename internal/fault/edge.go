package fault

import "sort"

// Edge is an undirected host edge in canonical orientation: U < V. Build
// one with CanonEdge so the invariant holds regardless of the order the
// endpoints were reported in.
type Edge struct {
	U, V int
}

// CanonEdge returns the canonical (sorted) form of the edge {u, v}.
func CanonEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// EdgeSet is a sparse set of faulty host edges, the edge-fault analogue
// of Set. Edges are stored canonically (U < V); Add and Remove accept
// either endpoint order and report whether the set changed, mirroring
// Set's add/remove/record style. The zero density assumption is baked
// in: edge faults are sparse (O(faults)), so a map + dense list beats a
// bitset over the Theta(n * degree) edge universe.
//
// Nth indexes the internal list, whose order depends on the mutation
// history (removal swaps the last edge into the hole) — deterministic
// for a deterministic caller, but not sorted. Slice and ForEach are the
// canonical views: always lexicographically sorted by (U, V).
type EdgeSet struct {
	idx  map[Edge]int
	list []Edge
}

// NewEdgeSet returns an empty edge-fault set.
func NewEdgeSet() *EdgeSet {
	return &EdgeSet{idx: make(map[Edge]int)}
}

// Count returns the number of faulty edges.
func (s *EdgeSet) Count() int { return len(s.list) }

// Has reports whether the edge {u, v} is faulty (either endpoint order).
func (s *EdgeSet) Has(u, v int) bool {
	_, ok := s.idx[CanonEdge(u, v)]
	return ok
}

// Add marks the edge {u, v} faulty and reports whether the set changed
// (false when the edge was already faulty).
func (s *EdgeSet) Add(u, v int) bool {
	e := CanonEdge(u, v)
	if _, ok := s.idx[e]; ok {
		return false
	}
	s.idx[e] = len(s.list)
	s.list = append(s.list, e)
	return true
}

// Remove marks the edge {u, v} repaired and reports whether the set
// changed (false when the edge was not faulty).
func (s *EdgeSet) Remove(u, v int) bool {
	e := CanonEdge(u, v)
	i, ok := s.idx[e]
	if !ok {
		return false
	}
	last := len(s.list) - 1
	moved := s.list[last]
	s.list[i] = moved
	s.idx[moved] = i
	s.list = s.list[:last]
	delete(s.idx, e)
	return true
}

// Clear empties the set, retaining capacity.
func (s *EdgeSet) Clear() {
	for _, e := range s.list {
		delete(s.idx, e)
	}
	s.list = s.list[:0]
}

// Nth returns the i-th edge of the internal list (0 <= i < Count). The
// order is mutation-history dependent; use it only for uniform random
// draws with an index the caller chose (e.g. Gillespie repair events).
func (s *EdgeSet) Nth(i int) Edge { return s.list[i] }

// Slice returns the faulty edges sorted lexicographically by (U, V), as
// a fresh slice. This is the canonical order used by snapshots and the
// wire format.
func (s *EdgeSet) Slice() []Edge {
	out := append([]Edge(nil), s.list...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

// Charger maintains the paper's Theorem 2 edge-fault reduction as an
// incrementally updated view: each faulty edge is charged to its
// canonical endpoint (the smaller index), and the *effective* fault set
// — user-reported node faults plus charged endpoints — is what the
// placement pipeline evaluates. An embedding verified against the
// effective set touches no charged node, hence no host edge incident to
// one, hence no faulty edge.
//
// The charge rule is a pure function of the edge set (min endpoint,
// unconditionally), so the effective set is deterministic and
// order-independent: any mutation order producing the same node and
// edge sets yields the same effective set, and therefore a bit-identical
// embedding.
//
// Every mutation reports the single effective-set index it changed (or
// -1), exactly what core.Session.NoteAdded/NoteCleared need to keep the
// dirty-column delta machinery in sync. Reference counts (charges per
// node) make clears exact: repairing one of two edges charged to the
// same node leaves the node effectively faulty, and repairing an edge
// charged to a user-faulty node never un-faults it.
type Charger struct {
	nodes  *Set
	edges  *EdgeSet
	eff    *Set
	charge map[int]int // node -> number of faulty edges charged to it
}

// NewCharger returns a charger over a host with n nodes, with no faults.
func NewCharger(n int) *Charger {
	return &Charger{
		nodes:  NewSet(n),
		edges:  NewEdgeSet(),
		eff:    NewSet(n),
		charge: make(map[int]int),
	}
}

// Reset empties all three sets and the charge counts, retaining
// capacity — the per-trial scratch pattern of the Monte-Carlo engines.
// It costs O(n/4096 + faults), not O(n): Set.Clear zeroes only the
// occupied words, and the edge set deletes only its listed edges.
func (c *Charger) Reset() {
	c.nodes.Clear()
	c.edges.Clear()
	c.eff.Clear()
	clear(c.charge)
}

// ChargedEndpoint returns the node the edge {u, v} is charged to: the
// smaller endpoint index.
func ChargedEndpoint(u, v int) int {
	if u < v {
		return u
	}
	return v
}

// Nodes returns the user-reported node-fault set. Read-only: mutate
// through AddNode/ClearNode so the effective set stays consistent.
func (c *Charger) Nodes() *Set { return c.nodes }

// Edges returns the edge-fault set. Read-only: mutate through
// AddEdge/ClearEdge so the effective set stays consistent.
func (c *Charger) Edges() *EdgeSet { return c.edges }

// Effective returns the charged fault set: user node faults plus the
// charged endpoint of every faulty edge. This is the set the placement
// pipeline evaluates. Read-only.
func (c *Charger) Effective() *Set { return c.eff }

// AddNode marks node v faulty. changed reports whether the node set
// changed; eff is the index added to the effective set, or -1 when the
// effective set did not change (v was already charged by an edge).
func (c *Charger) AddNode(v int) (changed bool, eff int) {
	if c.nodes.Has(v) {
		return false, -1
	}
	c.nodes.Add(v)
	if c.eff.Has(v) {
		return true, -1
	}
	c.eff.Add(v)
	return true, v
}

// ClearNode marks node v repaired. changed reports whether the node set
// changed; eff is the index removed from the effective set, or -1 when
// the effective set did not change (edges still charge v).
func (c *Charger) ClearNode(v int) (changed bool, eff int) {
	if !c.nodes.Has(v) {
		return false, -1
	}
	c.nodes.Remove(v)
	if c.charge[v] > 0 {
		return true, -1
	}
	c.eff.Remove(v)
	return true, v
}

// AddEdge marks the edge {u, v} faulty. changed reports whether the
// edge set changed; eff is the index added to the effective set, or -1
// when the effective set did not change (the charged endpoint was
// already faulty or already charged).
func (c *Charger) AddEdge(u, v int) (changed bool, eff int) {
	if !c.edges.Add(u, v) {
		return false, -1
	}
	w := ChargedEndpoint(u, v)
	c.charge[w]++
	if c.charge[w] > 1 || c.nodes.Has(w) {
		return true, -1
	}
	c.eff.Add(w)
	return true, w
}

// ClearEdge marks the edge {u, v} repaired. changed reports whether the
// edge set changed; eff is the index removed from the effective set, or
// -1 when the effective set did not change (other edges still charge the
// endpoint, or it is user-faulty).
func (c *Charger) ClearEdge(u, v int) (changed bool, eff int) {
	if !c.edges.Remove(u, v) {
		return false, -1
	}
	w := ChargedEndpoint(u, v)
	c.charge[w]--
	if c.charge[w] > 0 {
		return true, -1
	}
	delete(c.charge, w)
	if c.nodes.Has(w) {
		return true, -1
	}
	c.eff.Remove(w)
	return true, w
}

// ChargeEdges is the batch (from-scratch) form of the charging pass: it
// returns the effective fault set for the given node faults and edge
// list — nodes ∪ {ChargedEndpoint(e) : e in edges} — as a fresh set.
// Deterministic and order-independent by construction (a pure function
// of the two sets). The incremental Charger maintains exactly this set.
//
//lint:allow unused the batch reference the Charger tests in fault and churn compare the incremental set against
func ChargeEdges(nodes *Set, edges []Edge) *Set {
	eff := nodes.Clone()
	for _, e := range edges {
		eff.Add(ChargedEndpoint(e.U, e.V))
	}
	return eff
}
