// Package bands implements the band machinery of the paper's Section 3.
//
// A band (paper, before Lemma 6) is a mapping beta from the (d-1)-dimensional
// column space (C_n)^{d-1} into the host cycle [m] that changes by at most 1
// between adjacent columns and masks the b rows beta(z) .. beta(z)+b-1 of
// every column z. Two bands are untouching when, on every column, at least
// one unmasked node separates them (cyclic gap of band bottoms >= b+1).
//
// Lemma 6 is the package's contract: a family of exactly (m-n)/b mutually
// untouching bands leaves, in every column, exactly n unmasked nodes, and
// the unmasked part of the augmented torus B^d_n is an n-torus. The Set
// type stores such a family in a canonical cyclic order and Validate checks
// the slope, untouching and cardinality conditions exhaustively.
package bands

import (
	"fmt"

	"ftnet/internal/grid"
)

// Set is a family of bands over a common column space.
//
// Bands are stored bottom-up in a globally consistent cyclic order: on every
// column z the values Value(0,z), Value(1,z), ... appear in strictly
// increasing cyclic order around [m]. The placement algorithm in
// internal/core produces families in this order by construction; Validate
// re-checks it.
//
// A Set optionally runs in copy-on-write mode (see SeedFrom): it is seeded
// from a template family and records, in a dirty-column bitset, every
// column whose values may differ from the template. The locality-aware
// Theorem 2 pipeline uses the dirty set to touch only the fault footprint
// per Monte-Carlo trial. A Set must be written from one goroutine at a
// time.
type Set struct {
	M        int        // host cycle length (dimension 0)
	Width    int        // band width b
	ColShape grid.Shape // shape of the column space, sides n each
	vals     [][]int32  // vals[g][z] = bottom row of band g at column z

	// Copy-on-write state. dirtyBits is nil when tracking is off.
	dirtyBits []uint64
	dirtyList []int32
}

// NewSet allocates a family of k bands with all values zero; callers fill
// values via SetValue before validation.
func NewSet(m, width int, colShape grid.Shape, k int) *Set {
	vals := make([][]int32, k)
	cols := colShape.Size()
	backing := make([]int32, k*cols)
	for g := range vals {
		vals[g], backing = backing[:cols:cols], backing[cols:]
	}
	return &Set{M: m, Width: width, ColShape: colShape.Clone(), vals: vals}
}

// K returns the number of bands.
func (s *Set) K() int { return len(s.vals) }

// NumColumns returns the size of the column space.
func (s *Set) NumColumns() int { return s.ColShape.Size() }

// Value returns the bottom row of band g at column z.
func (s *Set) Value(g, z int) int { return int(s.vals[g][z]) }

// SetValue sets the bottom row of band g at column z. On a tracked set
// (SeedFrom) the column is marked dirty.
func (s *Set) SetValue(g, z, bottom int) {
	s.vals[g][z] = int32(grid.Add(bottom, 0, s.M))
	if s.dirtyBits != nil {
		s.MarkDirty(z)
	}
}

// sameGeometry reports whether the two families share (M, Width, K, column
// space), i.e. whether values can be copied between them verbatim.
func (s *Set) sameGeometry(t *Set) bool {
	if s.M != t.M || s.Width != t.Width || len(s.vals) != len(t.vals) || len(s.ColShape) != len(t.ColShape) {
		return false
	}
	for i := range s.ColShape {
		if s.ColShape[i] != t.ColShape[i] {
			return false
		}
	}
	return true
}

// SeedFrom switches the set into copy-on-write mode seeded from the
// template family tpl: after the call the set is value-identical to tpl
// and its dirty set is empty. The first call (or a geometry change) pays a
// full copy; subsequent calls restore only the columns dirtied since the
// previous SeedFrom, so re-seeding costs O(previous fault footprint), not
// O(columns). tpl must not change between calls that reuse the receiver.
func (s *Set) SeedFrom(tpl *Set) error {
	if !s.sameGeometry(tpl) {
		return fmt.Errorf("bands: SeedFrom geometry mismatch (m=%d/%d k=%d/%d)", s.M, tpl.M, len(s.vals), len(tpl.vals))
	}
	if s.dirtyBits == nil {
		for g := range s.vals {
			copy(s.vals[g], tpl.vals[g])
		}
		s.dirtyBits = make([]uint64, (s.NumColumns()+63)/64)
		s.dirtyList = s.dirtyList[:0]
		return nil
	}
	for _, z := range s.dirtyList {
		for g := range s.vals {
			s.vals[g][z] = tpl.vals[g][z]
		}
		s.dirtyBits[z>>6] &^= 1 << (uint(z) & 63)
	}
	s.dirtyList = s.dirtyList[:0]
	return nil
}

// MarkDirty records that column z may differ from the seed template.
// No-op when tracking is off or the column is already dirty.
func (s *Set) MarkDirty(z int) {
	if s.dirtyBits == nil {
		return
	}
	w, b := z>>6, uint(z)&63
	if s.dirtyBits[w]&(1<<b) == 0 {
		s.dirtyBits[w] |= 1 << b
		s.dirtyList = append(s.dirtyList, int32(z))
	}
}

// IsDirty reports whether column z is marked dirty. Always false when
// tracking is off.
func (s *Set) IsDirty(z int) bool {
	return s.dirtyBits != nil && s.dirtyBits[z>>6]&(1<<(uint(z)&63)) != 0
}

// DirtyColumns returns the dirty columns in mark order (deterministic: it
// follows the placement algorithm's enumeration). The slice aliases
// internal state — callers must not mutate it, and it is valid only until
// the next SeedFrom. Empty when tracking is off or nothing is dirty.
func (s *Set) DirtyColumns() []int32 { return s.dirtyList }

// CopyBandRange copies bands [gLo, gHi) at column z from src, marking z
// dirty on a tracked receiver. The two families must share geometry (the
// caller's responsibility). The delta-evaluation engine uses it to carry
// an unchanged fault box's footprint values from the previous family
// instead of re-interpolating them.
func (s *Set) CopyBandRange(src *Set, gLo, gHi, z int) {
	for gi := gLo; gi < gHi; gi++ {
		s.vals[gi][z] = src.vals[gi][z]
	}
	if s.dirtyBits != nil {
		s.MarkDirty(z)
	}
}

// ColumnEqual reports whether the receiver and other hold identical band
// values at column z. The two families must share geometry (the caller's
// responsibility); the coupled rate-ladder pipeline uses this to detect
// the columns whose values actually changed between two nested rungs.
func (s *Set) ColumnEqual(other *Set, z int) bool {
	for g := range s.vals {
		if s.vals[g][z] != other.vals[g][z] {
			return false
		}
	}
	return true
}

// Masks reports whether band g masks node (row, z).
func (s *Set) Masks(g, z, row int) bool {
	return grid.InCyclicInterval(row, int(s.vals[g][z]), s.Width, s.M)
}

// MaskedBy returns the index of the band masking (row, z), or -1 if the
// node is unmasked. Runs a binary search over the cyclically ordered band
// bottoms.
func (s *Set) MaskedBy(z, row int) int {
	k := len(s.vals)
	if k == 0 {
		return -1
	}
	// Binary search for the last band whose bottom is <= row in the cyclic
	// order anchored at band 0's bottom.
	anchor := int(s.vals[0][z])
	target := grid.FwdGap(anchor, row, s.M)
	lo, hi := 0, k // invariant: gap(anchor, vals[lo-1]) <= target < gap(anchor, vals[hi])
	for lo < hi {
		mid := (lo + hi) / 2
		if grid.FwdGap(anchor, int(s.vals[mid][z]), s.M) <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Candidate bands: lo-1 (below or at row) and, for wraparound, k-1.
	for _, g := range []int{lo - 1, k - 1} {
		if g >= 0 && s.Masks(g, z, row) {
			return g
		}
	}
	return -1
}

// UnmaskedRows appends the unmasked rows of column z in increasing cyclic
// order starting just above band 0, and returns the slice. With a valid
// family of (m-n)/b untouching bands the result has exactly n entries.
func (s *Set) UnmaskedRows(z int, buf []int32) []int32 {
	k := len(s.vals)
	if k == 0 {
		for r := 0; r < s.M; r++ {
			buf = append(buf, int32(r))
		}
		return buf
	}
	for g := 0; g < k; g++ {
		top := grid.Add(int(s.vals[g][z]), s.Width, s.M) // first unmasked row above band g
		next := int(s.vals[(g+1)%k][z])                  // bottom of the next band
		gap := grid.FwdGap(top, next, s.M)
		for o := 0; o < gap; o++ {
			buf = append(buf, int32(grid.Add(top, o, s.M)))
		}
	}
	return buf
}

// Validate checks the three structural conditions on the family:
//
//  1. slope: |beta(z) - beta(z')| <= 1 (cyclically) for adjacent columns;
//  2. untouching: cyclic gap between consecutive band bottoms >= width+1 on
//     every column, including the wraparound pair;
//  3. closure: the gaps around each column sum to exactly M, i.e. the
//     family order is globally consistent and bands never cross.
//
// It returns a descriptive error for the first violation found.
func (s *Set) Validate() error {
	k := len(s.vals)
	if k == 0 {
		return nil
	}
	cols := s.NumColumns()
	if k*(s.Width+1) > s.M {
		return fmt.Errorf("bands: %d bands of width %d cannot fit untouching in cycle of length %d", k, s.Width, s.M)
	}
	// Untouching + closure.
	for z := 0; z < cols; z++ {
		if err := s.validateColumn(z); err != nil {
			return err
		}
	}
	// Slope condition across every adjacent column pair, every dimension.
	coord := make([]int, len(s.ColShape))
	for z := 0; z < cols; z++ {
		s.ColShape.Coord(z, coord)
		for dim := range s.ColShape {
			orig := coord[dim]
			coord[dim] = grid.Add(orig, 1, s.ColShape[dim])
			zn := s.ColShape.Index(coord)
			coord[dim] = orig
			if err := s.validateSlope(z, zn); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateColumn checks the untouching and closure conditions at one
// column.
func (s *Set) validateColumn(z int) error {
	k := len(s.vals)
	need := s.Width + 1
	total := 0
	for g := 0; g < k; g++ {
		next := (g + 1) % k
		gap := grid.FwdGap(int(s.vals[g][z]), int(s.vals[next][z]), s.M)
		if k > 1 && gap < need {
			return fmt.Errorf("bands: bands %d and %d touch at column %d (bottoms %d, %d; gap %d < %d)",
				g, next, z, s.vals[g][z], s.vals[next][z], gap, need)
		}
		total += gap
	}
	if total != s.M {
		return fmt.Errorf("bands: band order inconsistent at column %d (gap sum %d != M %d)", z, total, s.M)
	}
	return nil
}

// validateSlope checks the slope condition between adjacent columns.
func (s *Set) validateSlope(z, zn int) error {
	for g := range s.vals {
		if grid.Dist(int(s.vals[g][z]), int(s.vals[g][zn]), s.M) > 1 {
			return fmt.Errorf("bands: band %d slope violation between columns %d and %d (values %d, %d)",
				g, z, zn, s.vals[g][z], s.vals[g][zn])
		}
	}
	return nil
}

// ValidateColumns is Validate restricted to the given columns: untouching
// and closure on each, and the slope condition on every adjacency incident
// to one (both directions). It extends a validity guarantee that already
// covers every other column — the template's for clean columns, or a
// previous rung's for columns whose values did not change — to the whole
// family.
func (s *Set) ValidateColumns(cols []int32) error {
	k := len(s.vals)
	if k == 0 {
		return nil
	}
	if k*(s.Width+1) > s.M {
		return fmt.Errorf("bands: %d bands of width %d cannot fit untouching in cycle of length %d", k, s.Width, s.M)
	}
	coord := make([]int, len(s.ColShape))
	for _, z32 := range cols {
		z := int(z32)
		if err := s.validateColumn(z); err != nil {
			return err
		}
		s.ColShape.Coord(z, coord)
		for dim := range s.ColShape {
			orig := coord[dim]
			for _, delta := range [2]int{1, -1} {
				coord[dim] = grid.Add(orig, delta, s.ColShape[dim])
				zn := s.ColShape.Index(coord)
				if err := s.validateSlope(z, zn); err != nil {
					return err
				}
			}
			coord[dim] = orig
		}
	}
	return nil
}
