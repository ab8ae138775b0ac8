// Package fault provides fault sets over node indices, random and
// adversarial fault generators, and a lazily evaluated edge-fault oracle.
//
// Node fault sets are dense bitsets: every construction in the paper works
// with networks of up to a few million nodes, for which a bitset is both
// the most compact and the fastest representation. An occupancy bitmap
// over the bitset's words lets walks and Clear skip the empty words, so
// a sparse set costs what its faults cost, not what the host costs. Edge
// faults for the supernode construction A^d_n are never materialized (the
// host has Θ(N·h) edges); instead Oracle answers per-edge queries from a
// deterministic hash of the edge identity.
package fault

import (
	"math"
	"math/bits"

	"ftnet/internal/fterr"
	"ftnet/internal/rng"
)

// Set is a set of faulty node indices in [0, n): a bitset of n/64 words
// plus an occupancy bitmap with one bit per word, set exactly when the
// word is nonzero. The walks (ForEach, Nth, RemoveRecord) and Clear
// visit only the occupied words, in increasing order, so each costs
// O(n/4096 + occupied words) instead of O(n/64): a few dozen faults on
// the 279,936-node B² host cost 69 bitmap words, not 4,374 set words.
type Set struct {
	bits  []uint64
	occ   []uint64 // bit w is set exactly when bits[w] != 0
	n     int
	count int
}

// NewSet returns an empty fault set over n nodes.
func NewSet(n int) *Set {
	if n < 0 {
		panic("fault: negative universe size")
	}
	words := (n + 63) / 64
	return &Set{bits: make([]uint64, words), occ: make([]uint64, (words+63)/64), n: n}
}

// Len returns the universe size n.
func (s *Set) Len() int { return s.n }

// Count returns the number of faulty nodes.
func (s *Set) Count() int { return s.count }

// Has reports whether node i is faulty.
func (s *Set) Has(i int) bool {
	return s.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add marks node i faulty. Adding an already-faulty node is a no-op.
func (s *Set) Add(i int) {
	w, b := i>>6, uint(i)&63
	if s.bits[w]&(1<<b) == 0 {
		if s.bits[w] == 0 {
			s.occ[w>>6] |= 1 << (uint(w) & 63)
		}
		s.bits[w] |= 1 << b
		s.count++
	}
}

// Remove clears node i. Removing a non-faulty node is a no-op.
func (s *Set) Remove(i int) {
	w, b := i>>6, uint(i)&63
	if s.bits[w]&(1<<b) != 0 {
		s.bits[w] &^= 1 << b
		if s.bits[w] == 0 {
			s.occ[w>>6] &^= 1 << (uint(w) & 63)
		}
		s.count--
	}
}

// Clear empties the set, retaining the universe size. It zeroes only the
// occupied words, so it costs O(n/4096 + occupied words).
//
//ftnet:hotpath
func (s *Set) Clear() {
	for ow, o := range s.occ {
		for ; o != 0; o &= o - 1 {
			s.bits[ow<<6+bits.TrailingZeros64(o)] = 0
		}
		s.occ[ow] = 0
	}
	s.count = 0
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	return &Set{
		bits: append([]uint64(nil), s.bits...),
		occ:  append([]uint64(nil), s.occ...),
		n:    s.n, count: s.count,
	}
}

// ForEach calls fn for every faulty node in increasing order, visiting
// only the occupied words. fn must not modify s.
//
//ftnet:hotpath
func (s *Set) ForEach(fn func(i int)) {
	for ow, o := range s.occ {
		for ; o != 0; o &= o - 1 {
			w := ow<<6 + bits.TrailingZeros64(o)
			for word := s.bits[w]; word != 0; word &= word - 1 {
				fn(w<<6 + bits.TrailingZeros64(word))
			}
		}
	}
}

// Slice returns the faulty indices in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.count)
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// CountRange returns the number of faulty nodes in the half-open index
// interval [lo, hi).
func (s *Set) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	c := 0
	wLo, wHi := lo>>6, (hi-1)>>6
	for w := wLo; w <= wHi; w++ {
		word := s.bits[w]
		if w == wLo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == wHi {
			top := uint(hi-1)&63 + 1
			if top < 64 {
				word &= (1 << top) - 1
			}
		}
		c += bits.OnesCount64(word)
	}
	return c
}

// Bernoulli adds each node of the universe independently with probability p,
// using geometric skip sampling so sparse fault rates cost O(np) not O(n).
func (s *Set) Bernoulli(r rng.Source, p float64) {
	s.BernoulliRecord(r, p, nil)
}

// BernoulliRecord is Bernoulli, additionally appending to added every node
// that actually transitioned from healthy to faulty, in increasing order,
// and returning the grown slice. Nodes that were already faulty consume
// the same random skips but are not recorded, so the marginal inclusion
// probability of every healthy node is exactly p regardless of the set's
// prior contents — the property the nested ladder sampler relies on.
//
//ftnet:hotpath
func (s *Set) BernoulliRecord(r rng.Source, p float64, added []int) []int {
	if p <= 0 {
		return added
	}
	if p >= 1 {
		for i := 0; i < s.n; i++ {
			if !s.Has(i) {
				s.Add(i)
				added = append(added, i)
			}
		}
		return added
	}
	i := r.Geometric(p)
	for i < s.n {
		if !s.Has(i) {
			s.Add(i)
			added = append(added, i)
		}
		i += 1 + r.Geometric(p)
	}
	return added
}

// RemoveRecord is the healing mirror of BernoulliRecord: each currently
// faulty node returns to health independently with probability p. Every
// healed node is appended to removed in increasing order and the grown
// slice returned. Skips between removals are sampled geometrically over
// the rank sequence of faulty nodes, so the random-stream consumption is
// O(count·p) — symmetric to BernoulliRecord's O(n·p) — and the walk
// itself costs one pass over the occupied words. The returned delta tells
// the incremental pipeline which columns lost a fault, exactly as
// Extend's added list reports which gained one.
//
//ftnet:hotpath
//lint:allow unused it generates the removal steps of the internal/core session goldens
func (s *Set) RemoveRecord(r rng.Source, p float64, removed []int) []int {
	if p <= 0 || s.count == 0 {
		return removed
	}
	if p >= 1 {
		start := len(removed)
		//lint:allow hotpath the p>=1 full-heal branch is cold (never taken by the churn samplers), so its visitor closure may allocate
		s.ForEach(func(i int) { removed = append(removed, i) })
		for _, i := range removed[start:] {
			s.Remove(i)
		}
		return removed
	}
	next := r.Geometric(p) // rank of the next healed node among the faulty
	rank := 0
	for ow, o := range s.occ {
		for ; o != 0; o &= o - 1 {
			w := ow<<6 + bits.TrailingZeros64(o)
			word := s.bits[w]
			if c := bits.OnesCount64(word); rank+c <= next {
				rank += c
				continue
			}
			for ; word != 0; word &= word - 1 {
				if rank == next {
					i := w<<6 + bits.TrailingZeros64(word)
					s.Remove(i)
					removed = append(removed, i)
					next += 1 + r.Geometric(p)
				}
				rank++
			}
		}
	}
	return removed
}

// RemoveAll clears every node in the list (the undo path of a recorded
// addition batch: RemoveAll(added) exactly reverts BernoulliRecord or
// Extend, because those lists contain only genuinely-new nodes). Nodes
// that are already healthy are skipped.
//
//lint:allow unused the internal/core session goldens use it to undo recorded additions
func (s *Set) RemoveAll(nodes []int) {
	for _, i := range nodes {
		s.Remove(i)
	}
}

// Nth returns the index of the k-th faulty node in increasing order,
// 0 <= k < Count. It pops the counts of the occupied words only, so the
// cost is O(n/4096 + occupied words); the churn engine uses it to draw
// uniform repair targets.
//
//ftnet:hotpath
func (s *Set) Nth(k int) int {
	if k < 0 || k >= s.count {
		panic("fault: Nth out of range")
	}
	for ow, o := range s.occ {
		for ; o != 0; o &= o - 1 {
			w := ow<<6 + bits.TrailingZeros64(o)
			word := s.bits[w]
			if c := bits.OnesCount64(word); k >= c {
				k -= c
				continue
			}
			for ; k > 0; k-- {
				word &= word - 1
			}
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("fault: internal: count out of sync with bitset")
}

// Extend grows a Bernoulli(pFrom) sample into a Bernoulli(pTo) sample,
// pTo >= pFrom, by skip-sampling only the delta: every currently healthy
// node joins independently with the conditional rate (pTo-pFrom)/(1-pFrom),
// which is exactly P(faulty at pTo | healthy at pFrom) under the canonical
// coupling F(p) = {i : U_i < p}. Starting from a set drawn at pFrom this
// yields F(pFrom) ⊆ F(pTo) with the exact Bernoulli(pTo) marginal, at
// O(n·(pTo-pFrom)) cost. Newly added nodes are appended to added (in
// increasing order) and the grown slice returned.
//
//ftnet:hotpath
func (s *Set) Extend(r rng.Source, pFrom, pTo float64, added []int) ([]int, error) {
	if pTo < pFrom {
		return added, fterr.New(fterr.Invalid, "fault", "Extend from p=%v down to p=%v", pFrom, pTo)
	}
	if pFrom < 0 || pTo > 1 {
		return added, fterr.New(fterr.Invalid, "fault", "Extend probabilities [%v, %v] out of range", pFrom, pTo)
	}
	if pFrom >= 1 {
		return added, nil
	}
	q := (pTo - pFrom) / (1 - pFrom)
	return s.BernoulliRecord(r, q, added), nil
}

// ExactRandom adds exactly k distinct uniformly random nodes. It returns an
// error if k exceeds the number of currently non-faulty nodes.
func (s *Set) ExactRandom(r rng.Source, k int) error {
	free := s.n - s.count
	if k > free {
		return fterr.New(fterr.Invalid, "fault", "cannot place %d faults among %d free nodes", k, free)
	}
	// Rejection sampling is fine while the set stays sparse; fall back to a
	// reservoir scan when k is a large fraction of the universe.
	if k*3 < free {
		for placed := 0; placed < k; {
			i := r.Intn(s.n)
			if !s.Has(i) {
				s.Add(i)
				placed++
			}
		}
		return nil
	}
	remaining := k
	for i := 0; i < s.n && remaining > 0; i++ {
		if s.Has(i) {
			continue
		}
		if r.Intn(free) < remaining {
			s.Add(i)
			remaining--
		}
		free--
	}
	return nil
}

// Oracle answers whether an implicit edge (u, v) is faulty, deterministically
// for a given seed, with marginal probability Q per edge. The orientation of
// the edge does not matter. It also exposes the half-edge view used by the
// paper's Section 4 analysis: each edge consists of two half-edges failing
// independently with probability sqrt(Q), and the edge is faulty iff both
// half-edges are.
type Oracle struct {
	seed  uint64
	sqrtQ float64
	// Q == sqrtQ² is the effective per-edge failure probability.
}

// NewOracle returns an edge-fault oracle with per-edge failure probability q.
func NewOracle(seed uint64, q float64) *Oracle {
	if q < 0 || q > 1 {
		panic("fault: edge probability out of range")
	}
	return &Oracle{seed: seed, sqrtQ: math.Sqrt(q)}
}

// HalfEdgeFaulty reports whether the half-edge incident to u on edge {u,v}
// is faulty. Independent across the two orientations.
func (o *Oracle) HalfEdgeFaulty(u, v int) bool {
	if o.sqrtQ == 0 {
		return false
	}
	return rng.HashFloat(o.seed, uint64(u), uint64(v)) < o.sqrtQ
}

// EdgeFaulty reports whether edge {u,v} is faulty: both half-edges faulty.
// Symmetric in u, v.
func (o *Oracle) EdgeFaulty(u, v int) bool {
	return o.HalfEdgeFaulty(u, v) && o.HalfEdgeFaulty(v, u)
}
