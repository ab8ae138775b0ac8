package core

import (
	"sync"

	"ftnet/internal/grid"
	"ftnet/internal/torus"
)

// Graph is the host network B^d_n. Nodes are pairs (i, z) with i in [m]
// (dimension 0) and z a column of the (d-1)-dimensional torus (C_n)^{d-1};
// the flat index is i*numCols + z.
//
// Edge classes (paper, Section 3):
//   - torus edges: the edges of C_m x (C_n)^{d-1};
//   - vertical jumps: (i, z) -- (i +- (b+1), z);
//   - diagonal jumps: (i, z) -- (i +- b, z') for each column z' adjacent
//     to z.
//
// Degree: 2d torus + 2 vertical + 4(d-1) diagonal = 6d-2, uniformly.
//
// DisableVJump / DisableDJump remove an edge class for ablation studies
// (experiments A1-A2); with either disabled the extraction of Lemma 6 must
// fail, which the tests assert. Set them before the first pipeline call:
// the lazily built locality template (see locality.go) bakes the edge
// classes in at first use.
type Graph struct {
	P           Params
	ColShape    grid.Shape // (d-1)-dimensional column space, sides n
	NumCols     int
	cornerShape grid.Shape   // (d-1)-dimensional tile-corner lattice, sides ColTiles
	tileShape   grid.Shape   // TileShape, cached for the allocation-free delta engine
	guest       *torus.Graph // the guest torus (C_n)^d every embedding of this host maps

	DisableVJump bool
	DisableDJump bool

	// Lazily built, immutable-after-build caches shared by concurrent
	// Monte-Carlo workers.
	chebOnce sync.Once
	cheb     [][]int // the 3^d-1 Chebyshev neighbor deltas of a tile
	nbrOnce  sync.Once
	nbr      []int32 // column-adjacency table, 2(d-1) entries per column (columnNeighbors)
	tplOnce  sync.Once
	tpl      *template // all-defaults template: commit zero of every Session
}

// NewGraph builds the host description and its guest torus. Adjacency
// is computed on the fly; the lookup tables the pipelines read (column
// adjacency, tile deltas, the template) are built lazily on first use.
func NewGraph(p Params) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	guest, err := torus.NewUniform(torus.TorusKind, p.D, p.N())
	if err != nil {
		return nil, err
	}
	cs := grid.Uniform(p.D-1, p.N())
	g := &Graph{
		P: p, ColShape: cs, NumCols: cs.Size(),
		cornerShape: grid.Uniform(p.D-1, p.ColTiles()),
		guest:       guest,
	}
	g.tileShape = g.TileShape()
	return g, nil
}

// NumNodes returns m * n^{d-1}.
func (g *Graph) NumNodes() int { return g.P.M() * g.NumCols }

// NodeShape returns the host node grid [m, n, ..., n]: flat node indices
// are row-major over it (NodeIndex(i, z) = i*numCols + z). Fault
// generators that place spatially structured patterns (adversarial
// bursts, clusters) address the host through this shape.
func (g *Graph) NodeShape() grid.Shape {
	s := make(grid.Shape, g.P.D)
	s[0] = g.P.M()
	copy(s[1:], g.ColShape)
	return s
}

// NodeIndex returns the flat index of node (i, z).
func (g *Graph) NodeIndex(i, z int) int { return i*g.NumCols + z }

// NodeOf splits a flat index into (i, z).
func (g *Graph) NodeOf(idx int) (i, z int) { return idx / g.NumCols, idx % g.NumCols }

// Degree returns the uniform degree (accounting for ablation switches).
func (g *Graph) Degree() int {
	d := g.P.Degree()
	if g.DisableVJump {
		d -= 2
	}
	if g.DisableDJump {
		d -= 4 * (g.P.D - 1)
	}
	return d
}

// Neighbors appends the neighbors of idx to buf and returns it.
func (g *Graph) Neighbors(idx int, buf []int) []int {
	m := g.P.M()
	w := g.P.W
	i, z := g.NodeOf(idx)
	// Dimension-0 torus edges.
	buf = append(buf, g.NodeIndex(grid.Add(i, 1, m), z))
	buf = append(buf, g.NodeIndex(grid.Sub(i, 1, m), z))
	// Vertical jumps.
	if !g.DisableVJump {
		buf = append(buf, g.NodeIndex(grid.Add(i, w+1, m), z))
		buf = append(buf, g.NodeIndex(grid.Sub(i, w+1, m), z))
	}
	// Other-dimension torus edges and diagonal jumps.
	coord := g.ColShape.Coord(z, make([]int, g.P.D-1))
	for dim := range g.ColShape {
		orig := coord[dim]
		for _, delta := range [2]int{1, -1} {
			coord[dim] = grid.Add(orig, delta, g.ColShape[dim])
			zn := g.ColShape.Index(coord)
			buf = append(buf, g.NodeIndex(i, zn))
			if !g.DisableDJump {
				buf = append(buf, g.NodeIndex(grid.Add(i, w, m), zn))
				buf = append(buf, g.NodeIndex(grid.Sub(i, w, m), zn))
			}
		}
		coord[dim] = orig
	}
	return buf
}

// Adjacent reports whether flat indices u and v are connected in B^d_n.
func (g *Graph) Adjacent(u, v int) bool {
	if u == v {
		return false
	}
	iu, zu := g.NodeOf(u)
	iv, zv := g.NodeOf(v)
	m := g.P.M()
	w := g.P.W
	di := grid.Dist(iu, iv, m)
	if zu == zv {
		if di == 1 {
			return true // torus edge along dimension 0
		}
		if di == w+1 && !g.DisableVJump {
			return true // vertical jump
		}
		return false
	}
	if !g.columnsAdjacent(zu, zv) {
		return false
	}
	if di == 0 {
		return true // torus edge along another dimension
	}
	if di == w && !g.DisableDJump {
		return true // diagonal jump
	}
	return false
}

// columnNeighbors returns the 2(d-1) columns adjacent to z: the +1 then
// the -1 neighbor along each column dimension in turn. The slice is a
// read-only row of the graph's column-adjacency table, built once on
// first use so the extraction BFS, the flood and the verifier read their
// neighbors instead of re-deriving them from coordinates.
func (g *Graph) columnNeighbors(z int) []int32 {
	g.nbrOnce.Do(g.buildColumnNeighbors)
	k := 2 * len(g.ColShape)
	return g.nbr[z*k : (z+1)*k : (z+1)*k]
}

func (g *Graph) buildColumnNeighbors() {
	k := 2 * len(g.ColShape)
	nbr := make([]int32, g.NumCols*k)
	coord := make([]int, len(g.ColShape))
	for z := 0; z < g.NumCols; z++ {
		g.ColShape.Coord(z, coord)
		row := nbr[z*k : (z+1)*k]
		for dim, side := range g.ColShape {
			orig := coord[dim]
			coord[dim] = grid.Add(orig, 1, side)
			row[2*dim] = int32(g.ColShape.Index(coord))
			coord[dim] = grid.Sub(orig, 1, side)
			row[2*dim+1] = int32(g.ColShape.Index(coord))
			coord[dim] = orig
		}
	}
	g.nbr = nbr
}

// columnsAdjacent reports whether columns za and zb differ by one cyclic
// step in exactly one dimension. It peels coordinate digits in place
// instead of materializing the tuples: the verifier asks this for every
// cross-column guest edge, so the two slice allocations it used to make
// dominated the whole Monte-Carlo trial's allocation count.
func (g *Graph) columnsAdjacent(za, zb int) bool {
	adjacentDims := 0
	for i := len(g.ColShape) - 1; i >= 0; i-- {
		n := g.ColShape[i]
		da, db := za%n, zb%n
		za /= n
		zb /= n
		if da == db {
			continue
		}
		if adjacentDims > 0 || grid.Dist(da, db, n) != 1 {
			return false
		}
		adjacentDims++
	}
	return adjacentDims == 1
}

// chebyshevDeltas returns the 3^d-1 nonzero {-1,0,1}^d tile deltas, built
// once per graph: box clustering walks them for every faulty tile of every
// Monte-Carlo trial, and regenerating the slice family per trial was one
// of the last steady-state allocations in placement.
func (g *Graph) chebyshevDeltas() [][]int {
	g.chebOnce.Do(func() { g.cheb = genChebyshevDeltas(g.P.D) })
	return g.cheb
}

// TileShape returns the shape of the tile grid: [numSlabs, colTiles, ...].
func (g *Graph) TileShape() grid.Shape {
	s := make(grid.Shape, g.P.D)
	s[0] = g.P.NumSlabs()
	for i := 1; i < g.P.D; i++ {
		s[i] = g.P.ColTiles()
	}
	return s
}
