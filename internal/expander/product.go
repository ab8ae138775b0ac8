package expander

import (
	"fmt"

	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
	"ftnet/internal/torus"
)

// Product is the Section 5 construction: the direct product of an expander
// F (standing in for the 1-dimensional Alon-Chung network) with the
// (d-1)-dimensional n x ... x n mesh. Each copy of the mesh is a
// supernode; a supernode is faulty if it contains any faulty node; a
// surviving path of n supernodes in F yields a fault-free d-dimensional
// mesh. The construction tolerates O(n) worst-case faults with constant
// degree — but only for the mesh, not the torus (a surviving path, unlike
// a cycle, is all the expander guarantees).
type Product struct {
	F         *Graph
	D         int // guest mesh dimension (>= 1)
	N         int // guest mesh side
	MeshShape grid.Shape
	meshSize  int
}

// NewProduct builds the product host for the d-dimensional n-mesh with
// redundancy factor c: the expander has ~c*n supernodes.
func NewProduct(d, n int, c float64) (*Product, error) {
	if d < 1 {
		return nil, fmt.Errorf("expander: product dimension %d < 1", d)
	}
	if n < 2 {
		return nil, fmt.Errorf("expander: side %d < 2", n)
	}
	if c < 1 {
		return nil, fmt.Errorf("expander: redundancy %v < 1", c)
	}
	q := SmallestQ(int(c * float64(n)))
	f, err := NewGabberGalil(q)
	if err != nil {
		return nil, err
	}
	var meshShape grid.Shape
	if d > 1 {
		meshShape = grid.Uniform(d-1, n)
	} else {
		meshShape = grid.Shape{1}
	}
	return &Product{F: f, D: d, N: n, MeshShape: meshShape, meshSize: meshShape.Size()}, nil
}

// NumNodes returns |F| * n^{d-1}.
func (p *Product) NumNodes() int { return p.F.N * p.meshSize }

// MaxDegree returns the maximum host degree: expander degree plus 2(d-1).
func (p *Product) MaxDegree() int { return p.F.MaxDegree() + 2*(p.D-1) }

// Supernode returns the expander vertex owning host node v.
func (p *Product) Supernode(v int) int { return v / p.meshSize }

// Adjacent reports product adjacency: either the same supernode with
// mesh-adjacent positions, or F-adjacent supernodes with equal positions.
func (p *Product) Adjacent(u, v int) bool {
	if u == v {
		return false
	}
	su, sv := u/p.meshSize, v/p.meshSize
	mu, mv := u%p.meshSize, v%p.meshSize
	if su == sv {
		return p.meshAdjacent(mu, mv)
	}
	if mu != mv {
		return false
	}
	for _, w := range p.F.Neighbors(su) {
		if int(w) == sv {
			return true
		}
	}
	return false
}

func (p *Product) meshAdjacent(a, b int) bool {
	ca := p.MeshShape.Coord(a, nil)
	cb := p.MeshShape.Coord(b, nil)
	diff := -1
	for i := range ca {
		if ca[i] != cb[i] {
			if diff >= 0 {
				return false
			}
			diff = i
		}
	}
	if diff < 0 {
		return false
	}
	d := ca[diff] - cb[diff]
	return d == 1 || d == -1
}

// Embed extracts a fault-free d-dimensional n-mesh: it marks supernodes
// containing faults as dead, finds a surviving path of n supernodes in the
// expander (Posa heuristic with the given step budget), and maps mesh row
// i to the i-th path vertex. Returns an error if no long-enough path was
// found within the budget.
func (p *Product) Embed(faults *fault.Set, r rng.Source, maxSteps int) (*embed.Embedding, error) {
	deadSuper := make([]bool, p.F.N)
	faults.ForEach(func(v int) { deadSuper[p.Supernode(v)] = true })
	alive := func(s int) bool { return !deadSuper[s] }
	path := p.F.LongestPath(alive, p.N, r, maxSteps)
	if len(path) < p.N {
		return nil, fmt.Errorf("expander: found surviving path of %d < %d supernodes", len(path), p.N)
	}
	path = path[:p.N]
	if err := p.F.VerifyPath(path, alive); err != nil {
		return nil, err
	}
	guestShape := make(grid.Shape, p.D)
	guestShape[0] = p.N
	for i := 1; i < p.D; i++ {
		guestShape[i] = p.N
	}
	guest, err := torus.New(torus.MeshKind, guestShape)
	if err != nil {
		return nil, err
	}
	e := embed.New(guest)
	gc := make([]int, p.D)
	for gi := 0; gi < guest.N(); gi++ {
		guest.Shape.Coord(gi, gc)
		mi := 0
		if p.D > 1 {
			mi = p.MeshShape.Index(gc[1:])
		}
		e.Map[gi] = path[gc[0]]*p.meshSize + mi
	}
	if err := e.Verify(p, faults, nil); err != nil {
		return nil, err
	}
	return e, nil
}
