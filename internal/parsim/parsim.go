// Package parsim simulates a synchronous message-passing parallel machine
// on a torus extracted from a faulty host: the paper's motivating setting
// ("a network of processors constituting a massively parallel computer").
//
// A Machine is built from a verified embedding; its processors are the
// guest torus nodes and every logical link is, by the embedding's
// contract, realized by a fault-free host edge. The package provides the
// standard torus kernels — dimension-ordered routing, nearest-neighbor
// stencil iteration, and dimension-wise all-reduce — with step and
// link-load accounting, so experiments can show that the reconfigured
// machine computes exactly what a pristine torus would.
package parsim

import (
	"fmt"

	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
)

// Machine is a synchronous parallel machine on an extracted torus.
type Machine struct {
	Shape grid.Shape // logical torus shape
	// HostOf[i] is the host node carrying logical processor i; recorded
	// for reporting, not needed for the simulation semantics.
	HostOf []int
}

// New verifies the embedding against the host with the given node
// faults one more time and wraps it as a machine.
func New(e *embed.Embedding, host embed.Host, faults *fault.Set) (*Machine, error) {
	if err := e.Verify(host, faults, nil); err != nil {
		return nil, fmt.Errorf("parsim: embedding rejected: %w", err)
	}
	m := &Machine{Shape: e.Guest.Shape.Clone(), HostOf: append([]int(nil), e.Map...)}
	return m, nil
}

// NewIdeal returns a machine on a pristine torus of the given shape: the
// reference every faulty-host run is compared against.
func NewIdeal(shape grid.Shape) *Machine {
	return &Machine{Shape: shape.Clone()}
}

// P returns the number of processors.
func (m *Machine) P() int { return m.Shape.Size() }

// Route returns the dimension-ordered route from src to dst (flat logical
// indices): hops along dimension 0 first (shorter way around the cycle),
// then dimension 1, and so on. The returned path includes both endpoints.
func (m *Machine) Route(src, dst int) []int {
	d := len(m.Shape)
	cur := m.Shape.Coord(src, make([]int, d))
	target := m.Shape.Coord(dst, make([]int, d))
	path := []int{src}
	for dim := 0; dim < d; dim++ {
		n := m.Shape[dim]
		for cur[dim] != target[dim] {
			fwd := grid.FwdGap(cur[dim], target[dim], n)
			if fwd <= n-fwd {
				cur[dim] = grid.Add(cur[dim], 1, n)
			} else {
				cur[dim] = grid.Sub(cur[dim], 1, n)
			}
			path = append(path, m.Shape.Index(cur))
		}
	}
	return path
}

// CongestionStats aggregates link loads from a traffic pattern.
type CongestionStats struct {
	Packets  int
	TotalHop int
	MaxLink  int // most-loaded directed link
	AvgHops  float64
}

// Permutation routes one packet per processor according to perm (packet i
// goes to perm[i]) with dimension-ordered routing and reports congestion.
func (m *Machine) Permutation(perm []int) (CongestionStats, error) {
	if len(perm) != m.P() {
		return CongestionStats{}, fmt.Errorf("parsim: permutation has %d entries for %d processors", len(perm), m.P())
	}
	load := make(map[[2]int]int)
	st := CongestionStats{Packets: m.P()}
	for src, dst := range perm {
		path := m.Route(src, dst)
		st.TotalHop += len(path) - 1
		for i := 1; i < len(path); i++ {
			l := [2]int{path[i-1], path[i]}
			load[l]++
			if load[l] > st.MaxLink {
				st.MaxLink = load[l]
			}
		}
	}
	st.AvgHops = float64(st.TotalHop) / float64(st.Packets)
	return st, nil
}

// Stencil runs steps of a synchronous nearest-neighbor relaxation: each
// processor replaces its value with the average of itself and its 2d
// torus neighbors, weighted (1-omega) self + omega * neighbor mean. It
// returns the final field. This is the Jacobi iteration kernel of the
// mesh-computation workloads the paper's introduction motivates.
func (m *Machine) Stencil(init []float64, steps int, omega float64) ([]float64, error) {
	p := m.P()
	if len(init) != p {
		return nil, fmt.Errorf("parsim: field has %d entries for %d processors", len(init), p)
	}
	cur := append([]float64(nil), init...)
	next := make([]float64, p)
	nbuf := make([]int, 0, 2*len(m.Shape))
	// Precompute the neighbor lists once: the machine is static.
	neighbors := make([][]int, p)
	for i := 0; i < p; i++ {
		nbuf = m.Shape.TorusNeighbors(i, nbuf[:0])
		neighbors[i] = append([]int(nil), nbuf...)
	}
	for s := 0; s < steps; s++ {
		for i := 0; i < p; i++ {
			sum := 0.0
			for _, nb := range neighbors[i] {
				sum += cur[nb]
			}
			next[i] = (1-omega)*cur[i] + omega*sum/float64(len(neighbors[i]))
		}
		cur, next = next, cur
	}
	return cur, nil
}

// AllReduceSum performs a dimension-wise ring all-reduce of one value per
// processor and returns the global sum along with the number of
// communication steps a synchronous implementation would take
// (sum of (n_i - 1) over dimensions).
func (m *Machine) AllReduceSum(vals []float64) (float64, int, error) {
	if len(vals) != m.P() {
		return 0, 0, fmt.Errorf("parsim: %d values for %d processors", len(vals), m.P())
	}
	// Simulate: reduce along each dimension in turn.
	cur := append([]float64(nil), vals...)
	steps := 0
	d := len(m.Shape)
	coord := make([]int, d)
	for dim := 0; dim < d; dim++ {
		n := m.Shape[dim]
		next := make([]float64, len(cur))
		for i := range cur {
			m.Shape.Coord(i, coord)
			sum := 0.0
			orig := coord[dim]
			for v := 0; v < n; v++ {
				coord[dim] = v
				sum += cur[m.Shape.Index(coord)]
			}
			coord[dim] = orig
			next[i] = sum
		}
		cur = next
		steps += n - 1
	}
	return cur[0], steps, nil
}

// MaxDiff returns the largest absolute elementwise difference between two
// fields, for comparing a reconfigured run against the ideal reference.
func MaxDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
