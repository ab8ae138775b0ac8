package grid

import (
	"testing"
	"testing/quick"
)

func TestCyclicArithmetic(t *testing.T) {
	cases := []struct {
		i, j, n, add, sub int
	}{
		{0, 1, 5, 1, 4},
		{4, 1, 5, 0, 3},
		{4, -1, 5, 3, 0},
		{2, 13, 5, 0, 4},
		{0, -7, 5, 3, 2},
	}
	for _, c := range cases {
		if got := Add(c.i, c.j, c.n); got != c.add {
			t.Errorf("Add(%d,%d,%d) = %d, want %d", c.i, c.j, c.n, got, c.add)
		}
		if got := Sub(c.i, c.j, c.n); got != c.sub {
			t.Errorf("Sub(%d,%d,%d) = %d, want %d", c.i, c.j, c.n, got, c.sub)
		}
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(i, j uint8) bool {
		n := 17
		x := int(i) % n
		return Sub(Add(x, int(j), n), int(j), n) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetricBounded(t *testing.T) {
	f := func(i, j uint8) bool {
		n := 23
		a, b := int(i)%n, int(j)%n
		d := Dist(a, b, n)
		return d == Dist(b, a, n) && d >= 0 && d <= n/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFwdGap(t *testing.T) {
	if got := FwdGap(8, 2, 10); got != 4 {
		t.Errorf("FwdGap(8,2,10) = %d, want 4", got)
	}
	if got := FwdGap(2, 8, 10); got != 6 {
		t.Errorf("FwdGap(2,8,10) = %d, want 6", got)
	}
	f := func(i, j uint8) bool {
		n := 31
		a, b := int(i)%n, int(j)%n
		return Add(a, FwdGap(a, b, n), n) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInCyclicInterval(t *testing.T) {
	if !InCyclicInterval(1, 8, 5, 10) {
		t.Error("1 should be in wrap interval [8,13) mod 10")
	}
	if InCyclicInterval(3, 8, 5, 10) {
		t.Error("3 should not be in wrap interval [8,13) mod 10")
	}
	if !InCyclicInterval(4, 4, 1, 10) {
		t.Error("4 should be in [4,5)")
	}
	if InCyclicInterval(4, 4, 0, 10) {
		t.Error("empty interval contains nothing")
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 3, 2}, {-7, 3, -3}, {-6, 3, -2}, {0, 5, 0}, {-1, 5, -1},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestShapeIndexRoundtrip(t *testing.T) {
	s := Shape{3, 5, 7}
	if s.Size() != 105 {
		t.Fatalf("Size = %d", s.Size())
	}
	for idx := 0; idx < s.Size(); idx++ {
		c := s.Coord(idx, nil)
		if got := s.Index(c); got != idx {
			t.Fatalf("Index(Coord(%d)) = %d", idx, got)
		}
		for i, v := range c {
			if v < 0 || v >= s[i] {
				t.Fatalf("Coord(%d)[%d] = %d out of range", idx, i, v)
			}
		}
	}
}

func TestShapeValidate(t *testing.T) {
	if err := (Shape{}).Validate(); err == nil {
		t.Error("empty shape should be invalid")
	}
	if err := (Shape{3, 0}).Validate(); err == nil {
		t.Error("zero side should be invalid")
	}
	if err := (Shape{3, 4}).Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
}

func TestTorusNeighborsCount(t *testing.T) {
	s := Shape{4, 5}
	nbrs := s.TorusNeighbors(s.Index([]int{0, 0}), nil)
	if len(nbrs) != 4 {
		t.Fatalf("torus corner has %d neighbors, want 4", len(nbrs))
	}
	// Wrap: (0,0) connects to (3,0) and (0,4).
	want := map[int]bool{s.Index([]int{1, 0}): true, s.Index([]int{3, 0}): true,
		s.Index([]int{0, 1}): true, s.Index([]int{0, 4}): true}
	for _, v := range nbrs {
		if !want[v] {
			t.Errorf("unexpected neighbor %v", s.Coord(v, nil))
		}
	}
}

func TestMeshNeighborsCorner(t *testing.T) {
	s := Shape{4, 5}
	nbrs := s.MeshNeighbors(s.Index([]int{0, 0}), nil)
	if len(nbrs) != 2 {
		t.Fatalf("mesh corner has %d neighbors, want 2", len(nbrs))
	}
	center := s.MeshNeighbors(s.Index([]int{2, 2}), nil)
	if len(center) != 4 {
		t.Fatalf("mesh interior has %d neighbors, want 4", len(center))
	}
}

func TestIntervalsIntersect(t *testing.T) {
	cases := []struct {
		lo1, e1, lo2, e2, n int
		want                bool
	}{
		{0, 3, 2, 2, 10, true},
		{0, 3, 3, 2, 10, false},
		{8, 4, 0, 2, 10, true},  // wrap overlap
		{8, 2, 0, 2, 10, false}, // wrap adjacent
		{0, 10, 5, 1, 10, true}, // full cycle
		{5, 0, 5, 5, 10, false}, // empty
	}
	for _, c := range cases {
		if got := IntervalsIntersect(c.lo1, c.e1, c.lo2, c.e2, c.n); got != c.want {
			t.Errorf("IntervalsIntersect(%+v) = %v", c, got)
		}
	}
}

func TestIntervalCoverMinimal(t *testing.T) {
	lo, e := IntervalCover(8, 2, 1, 2, 10)
	if lo != 8 || e != 5 {
		t.Errorf("IntervalCover wrap = (%d,%d), want (8,5)", lo, e)
	}
	lo, e = IntervalCover(2, 2, 5, 2, 10)
	if e != 5 {
		t.Errorf("IntervalCover = (%d,%d), want extent 5", lo, e)
	}
	// Property: cover contains both intervals.
	f := func(a, b, c, d uint8) bool {
		n := 13
		lo1, lo2 := int(a)%n, int(b)%n
		e1, e2 := 1+int(c)%4, 1+int(d)%4
		lo, e := IntervalCover(lo1, e1, lo2, e2, n)
		for o := 0; o < e1; o++ {
			if !InCyclicInterval(Add(lo1, o, n), lo, e, n) {
				return false
			}
		}
		for o := 0; o < e2; o++ {
			if !InCyclicInterval(Add(lo2, o, n), lo, e, n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCyclicCoverProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := 19
		coords := make([]int, len(raw))
		orig := make([]int, len(raw))
		for i, v := range raw {
			coords[i] = int(v) % n
			orig[i] = coords[i]
		}
		lo, e := CyclicCover(coords, n)
		if e < 1 || e > n {
			return false
		}
		for _, c := range orig {
			if !InCyclicInterval(c, lo, e, n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniform(t *testing.T) {
	s := Uniform(3, 7)
	if len(s) != 3 || s[0] != 7 || s[2] != 7 {
		t.Errorf("Uniform(3,7) = %v", s)
	}
}

// TestTorusNeighborsSymmetric: u in N(v) iff v in N(u), for every pair on
// a small asymmetric shape.
func TestTorusNeighborsSymmetric(t *testing.T) {
	s := Shape{3, 4, 5}
	adj := make(map[[2]int]bool)
	for u := 0; u < s.Size(); u++ {
		for _, v := range s.TorusNeighbors(u, nil) {
			adj[[2]int{u, v}] = true
		}
	}
	for e := range adj {
		if !adj[[2]int{e[1], e[0]}] {
			t.Fatalf("edge %v not symmetric", e)
		}
	}
	// Degree 2d everywhere for sides >= 3.
	for u := 0; u < s.Size(); u++ {
		if got := len(s.TorusNeighbors(u, nil)); got != 6 {
			t.Fatalf("node %d degree %d", u, got)
		}
	}
}

func TestMeshNeighborsSymmetric(t *testing.T) {
	s := Shape{4, 5}
	adj := make(map[[2]int]bool)
	for u := 0; u < s.Size(); u++ {
		for _, v := range s.MeshNeighbors(u, nil) {
			adj[[2]int{u, v}] = true
		}
	}
	for e := range adj {
		if !adj[[2]int{e[1], e[0]}] {
			t.Fatalf("mesh edge %v not symmetric", e)
		}
	}
	// Total directed degree = 2 * edges = 2 * (3*5 + 4*4) = 62.
	if len(adj) != 62 {
		t.Errorf("mesh has %d directed edges, want 62", len(adj))
	}
}

func TestCoordBufferReuse(t *testing.T) {
	s := Shape{4, 5}
	buf := make([]int, 2)
	c := s.Coord(7, buf)
	if &c[0] != &buf[0] {
		t.Error("Coord ignored the provided buffer")
	}
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("Coord(7) = %v", c)
	}
}
