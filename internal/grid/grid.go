// Package grid provides cyclic integer arithmetic and mixed-radix
// coordinate indexing for d-dimensional tori and meshes.
//
// Conventions: all coordinates are 0-indexed (the paper uses [n] = 1..n;
// we use 0..n-1 throughout). Cyclic addition and subtraction correspond to
// the paper's +_n and -_n operators.
package grid

import "fmt"

// Add returns i +_n j, the cyclic sum of i and j in 0..n-1.
// j may be negative or exceed n.
func Add(i, j, n int) int {
	s := (i + j) % n
	if s < 0 {
		s += n
	}
	return s
}

// Sub returns i -_n j, the cyclic difference of i and j in 0..n-1.
func Sub(i, j, n int) int {
	return Add(i, -j, n)
}

// Dist returns the cyclic distance between i and j on a cycle of length n,
// i.e. min(|i-j|, n-|i-j|).
func Dist(i, j, n int) int {
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// FwdGap returns the forward (counterclockwise) gap from i to j on a cycle
// of length n: the unique g in 0..n-1 with i +_n g == j.
func FwdGap(i, j, n int) int {
	return Sub(j, i, n)
}

// InCyclicInterval reports whether x lies in the half-open cyclic interval
// [lo, lo+width) on a cycle of length n. width must be in 0..n.
func InCyclicInterval(x, lo, width, n int) bool {
	return FwdGap(lo, x, n) < width
}

// FloorDiv returns floor(a/b) for positive b, correct for negative a.
func FloorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// IntervalsIntersect reports whether the cyclic intervals [lo1, lo1+e1) and
// [lo2, lo2+e2) on a cycle of length n share a point. Extents of n or more
// cover the whole cycle.
func IntervalsIntersect(lo1, e1, lo2, e2, n int) bool {
	if e1 <= 0 || e2 <= 0 {
		return false
	}
	if e1 >= n || e2 >= n {
		return true
	}
	return FwdGap(lo1, lo2, n) < e1 || FwdGap(lo2, lo1, n) < e2
}

// IntervalCover returns the smallest cyclic interval containing both
// [lo1, lo1+e1) and [lo2, lo2+e2) on a cycle of length n. When no interval
// shorter than the full cycle works, it returns (0, n).
func IntervalCover(lo1, e1, lo2, e2, n int) (lo, e int) {
	if e1 >= n || e2 >= n {
		return 0, n
	}
	// Either candidate start covers both intervals; take the shorter cover.
	c1 := e1
	if g := FwdGap(lo1, lo2, n) + e2; g > c1 {
		c1 = g
	}
	c2 := e2
	if g := FwdGap(lo2, lo1, n) + e1; g > c2 {
		c2 = g
	}
	if c1 <= c2 {
		lo, e = lo1, c1
	} else {
		lo, e = lo2, c2
	}
	if e >= n {
		return 0, n
	}
	return lo, e
}

// CyclicCover returns the smallest cyclic interval [lo, lo+e) covering all
// the given coordinates on a cycle of length n. coords must be non-empty;
// it is modified (sorted, deduplicated) in place.
func CyclicCover(coords []int, n int) (lo, e int) {
	sortInts(coords)
	uniq := coords[:1]
	for _, c := range coords[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	if len(uniq) == 1 {
		return uniq[0], 1
	}
	// The cover is the complement of the largest gap between consecutive
	// (cyclically ordered) coordinates.
	maxGap, maxAt := -1, 0
	for i := range uniq {
		next := uniq[(i+1)%len(uniq)]
		gap := FwdGap(uniq[i], next, n)
		if gap > maxGap {
			maxGap, maxAt = gap, i
		}
	}
	lo = uniq[(maxAt+1)%len(uniq)]
	e = n - maxGap + 1
	return lo, e
}

func sortInts(a []int) {
	// Insertion sort: coordinate lists here are tiny (bounded by box caps).
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Shape describes the side lengths of a d-dimensional box or torus and
// provides mixed-radix conversion between coordinate tuples and flat
// indices. Index order is row-major: the last coordinate varies fastest.
type Shape []int

// Size returns the total number of points, the product of all sides.
func (s Shape) Size() int {
	n := 1
	for _, v := range s {
		n *= v
	}
	return n
}

// Validate returns an error unless every side is positive.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("grid: empty shape")
	}
	for i, v := range s {
		if v <= 0 {
			return fmt.Errorf("grid: shape[%d] = %d, want > 0", i, v)
		}
	}
	return nil
}

// Index converts a coordinate tuple to a flat index. The tuple must have
// exactly len(s) entries, each within range.
func (s Shape) Index(coord []int) int {
	idx := 0
	for i, v := range coord {
		idx = idx*s[i] + v
	}
	return idx
}

// Coord converts a flat index back into a coordinate tuple, storing the
// result in buf (which must have length len(s)) and returning it. A nil
// buf allocates.
func (s Shape) Coord(idx int, buf []int) []int {
	if buf == nil {
		buf = make([]int, len(s))
	}
	for i := len(s) - 1; i >= 0; i-- {
		buf[i] = idx % s[i]
		idx /= s[i]
	}
	return buf
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Uniform returns a d-dimensional shape with every side equal to n.
func Uniform(d, n int) Shape {
	s := make(Shape, d)
	for i := range s {
		s[i] = n
	}
	return s
}

// TorusNeighbors appends to buf the flat indices of the 2d torus neighbors
// of the point with flat index idx (±1 in each dimension, cyclically) and
// returns the extended slice. Side lengths of 1 or 2 would create self
// loops or duplicate edges; callers requiring simple graphs should ensure
// all sides are at least 3.
func (s Shape) TorusNeighbors(idx int, buf []int) []int {
	coord := s.Coord(idx, make([]int, len(s)))
	for i := range s {
		orig := coord[i]
		coord[i] = Add(orig, 1, s[i])
		buf = append(buf, s.Index(coord))
		coord[i] = Sub(orig, 1, s[i])
		buf = append(buf, s.Index(coord))
		coord[i] = orig
	}
	return buf
}

// MeshNeighbors is like TorusNeighbors but without wraparound: neighbors
// outside the box are omitted.
func (s Shape) MeshNeighbors(idx int, buf []int) []int {
	coord := s.Coord(idx, make([]int, len(s)))
	for i := range s {
		orig := coord[i]
		if orig+1 < s[i] {
			coord[i] = orig + 1
			buf = append(buf, s.Index(coord))
		}
		if orig-1 >= 0 {
			coord[i] = orig - 1
			buf = append(buf, s.Index(coord))
		}
		coord[i] = orig
	}
	return buf
}
