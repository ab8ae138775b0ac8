package torus

import (
	"testing"

	"ftnet/internal/grid"
)

// Adjacent reports whether nodes a and b are adjacent, from coordinates
// alone: the oracle the Neighbors and EachEdge tests check against.
func (g *Graph) Adjacent(a, b int) bool {
	if a == b {
		return false
	}
	ca := g.Shape.Coord(a, nil)
	cb := g.Shape.Coord(b, nil)
	diffDim := -1
	for i := range g.Shape {
		if ca[i] != cb[i] {
			if diffDim >= 0 {
				return false
			}
			diffDim = i
		}
	}
	if diffDim < 0 {
		return false
	}
	d := ca[diffDim] - cb[diffDim]
	if d == 1 || d == -1 {
		return true
	}
	if g.Kind == TorusKind {
		n := g.Shape[diffDim]
		return d == n-1 || d == -(n-1)
	}
	return false
}

// NumEdges returns the number of edges in closed form: the count
// EachEdge must emit.
func (g *Graph) NumEdges() int {
	total := 0
	for i, n := range g.Shape {
		per := n // cycle: n edges along this dimension per line
		if g.Kind == MeshKind {
			per = n - 1
		}
		others := 1
		for j, m := range g.Shape {
			if j != i {
				others *= m
			}
		}
		total += per * others
	}
	return total
}

func TestNewValidation(t *testing.T) {
	if _, err := New(TorusKind, grid.Shape{2, 5}); err == nil {
		t.Error("torus side 2 should be rejected")
	}
	if _, err := New(MeshKind, grid.Shape{2, 5}); err != nil {
		t.Errorf("mesh side 2 should be fine: %v", err)
	}
	if _, err := New(TorusKind, grid.Shape{}); err == nil {
		t.Error("empty shape should be rejected")
	}
}

func TestTorusDegreeUniform(t *testing.T) {
	g, err := NewUniform(TorusKind, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if nbrs := g.Neighbors(u, nil); len(nbrs) != 4 {
			t.Fatalf("node %d has %d neighbors", u, len(nbrs))
		}
	}
}

func TestNumEdges(t *testing.T) {
	torus5, _ := NewUniform(TorusKind, 2, 5)
	if got, want := torus5.NumEdges(), 50; got != want { // 2 * 5 * 5
		t.Errorf("torus 5x5 edges = %d, want %d", got, want)
	}
	mesh5, _ := NewUniform(MeshKind, 2, 5)
	if got, want := mesh5.NumEdges(), 40; got != want { // 2 * 4 * 5
		t.Errorf("mesh 5x5 edges = %d, want %d", got, want)
	}
}

func TestEachEdgeCountsMatch(t *testing.T) {
	for _, kind := range []Kind{TorusKind, MeshKind} {
		g, _ := New(kind, grid.Shape{4, 5, 3})
		count := 0
		g.EachEdge(func(u, v int) {
			count++
			if !g.Adjacent(u, v) {
				t.Fatalf("%v: EachEdge emitted non-adjacent pair (%d,%d)", kind, u, v)
			}
		})
		if count != g.NumEdges() {
			t.Errorf("%v: EachEdge emitted %d, NumEdges says %d", kind, count, g.NumEdges())
		}
	}
}

func TestAdjacentMatchesNeighbors(t *testing.T) {
	for _, kind := range []Kind{TorusKind, MeshKind} {
		g, _ := New(kind, grid.Shape{4, 6})
		for u := 0; u < g.N(); u++ {
			nbrs := map[int]bool{}
			for _, v := range g.Neighbors(u, nil) {
				nbrs[v] = true
			}
			for v := 0; v < g.N(); v++ {
				if got := g.Adjacent(u, v); got != nbrs[v] {
					t.Fatalf("%v: Adjacent(%d,%d) = %v, neighbors say %v", kind, u, v, got, nbrs[v])
				}
			}
		}
	}
}

func TestMeshWrapNotAdjacent(t *testing.T) {
	g, _ := NewUniform(MeshKind, 1, 6)
	if g.Adjacent(0, 5) {
		t.Error("mesh endpoints should not wrap")
	}
	tg, _ := NewUniform(TorusKind, 1, 6)
	if !tg.Adjacent(0, 5) {
		t.Error("torus endpoints should wrap")
	}
}

func TestKindString(t *testing.T) {
	if TorusKind.String() != "torus" || MeshKind.String() != "mesh" {
		t.Error("Kind strings wrong")
	}
}
