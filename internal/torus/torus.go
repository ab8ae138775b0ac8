// Package torus implements d-dimensional torus and mesh graphs as direct
// products of cycles C_n and paths L_n (paper, Section 2), with
// allocation-light adjacency suitable for million-node instances.
//
// A Torus is the guest network the paper's constructions must contain after
// faults; it also serves as the substrate the host networks B, A and D are
// built from by edge augmentation.
package torus

import (
	"fmt"

	"ftnet/internal/grid"
)

// Kind distinguishes the cyclic product (torus) from the path product (mesh).
type Kind int

const (
	// TorusKind is the direct product of cycles C_{n1} x ... x C_{nd}.
	TorusKind Kind = iota
	// MeshKind is the direct product of paths L_{n1} x ... x L_{nd}.
	MeshKind
)

func (k Kind) String() string {
	if k == MeshKind {
		return "mesh"
	}
	return "torus"
}

// Graph is a d-dimensional torus or mesh.
type Graph struct {
	Shape grid.Shape
	Kind  Kind
}

// New returns the torus or mesh with the given side lengths.
func New(kind Kind, shape grid.Shape) (*Graph, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if kind == TorusKind {
		for i, v := range shape {
			if v < 3 {
				return nil, fmt.Errorf("torus: side %d is %d; cycles need length >= 3 for a simple graph", i, v)
			}
		}
	}
	return &Graph{Shape: shape.Clone(), Kind: kind}, nil
}

// NewUniform returns the d-dimensional n x ... x n torus or mesh.
func NewUniform(kind Kind, d, n int) (*Graph, error) {
	return New(kind, grid.Uniform(d, n))
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.Shape.Size() }

// NumNodes returns the number of nodes; an alias of N satisfying the
// implicit-graph interfaces shared with the host networks.
func (g *Graph) NumNodes() int { return g.N() }

// Dims returns the dimensionality d.
func (g *Graph) Dims() int { return len(g.Shape) }

// Neighbors appends the neighbor indices of node idx to buf and returns it.
func (g *Graph) Neighbors(idx int, buf []int) []int {
	if g.Kind == TorusKind {
		return g.Shape.TorusNeighbors(idx, buf)
	}
	return g.Shape.MeshNeighbors(idx, buf)
}

// EachEdge calls fn(u, v) once per edge with u < v... ordering follows the
// canonical orientation (+1 step per dimension); for torus wrap edges the
// larger coordinate connects back to 0, so u > v can occur. fn must not
// retain the coordinate buffer.
func (g *Graph) EachEdge(fn func(u, v int)) {
	n := g.N()
	coord := make([]int, g.Dims())
	for u := 0; u < n; u++ {
		g.Shape.Coord(u, coord)
		for i := range g.Shape {
			orig := coord[i]
			if orig+1 < g.Shape[i] {
				coord[i] = orig + 1
				fn(u, g.Shape.Index(coord))
			} else if g.Kind == TorusKind && g.Shape[i] >= 3 {
				coord[i] = 0
				fn(u, g.Shape.Index(coord))
			}
			coord[i] = orig
		}
	}
}
