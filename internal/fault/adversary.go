package fault

import (
	"fmt"

	"ftnet/internal/fterr"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
)

// Pattern names an adversarial fault placement strategy used to stress the
// worst-case construction D^d_{n,k} (paper, Theorem 3). The guarantee of
// Theorem 3 is for *any* fault set of size k, so the test suite exercises a
// spread of qualitatively different adversaries.
type Pattern int

const (
	// Uniform places k faults uniformly at random.
	Uniform Pattern = iota
	// Cluster packs all faults into the densest possible axis-aligned box.
	Cluster
	// RowSweep concentrates faults on as few dimension-0 rows as possible,
	// attacking the first pigeonhole stage.
	RowSweep
	// Diagonal places faults along a wrapped diagonal, touching as many
	// distinct rows, columns and residue classes as possible.
	Diagonal
	// ClassSpread spreads faults evenly across the cyclic residue classes
	// mod (b+1) of dimension 0, maximizing the per-class minimum the
	// pigeonhole argument must beat.
	ClassSpread
	// ColumnSweep concentrates faults on as few last-dimension columns as
	// possible, attacking the final pigeonhole stage.
	ColumnSweep
)

var patternNames = map[Pattern]string{
	Uniform:     "uniform",
	Cluster:     "cluster",
	RowSweep:    "rowsweep",
	Diagonal:    "diagonal",
	ClassSpread: "classspread",
	ColumnSweep: "columnsweep",
}

func (p Pattern) String() string {
	if s, ok := patternNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// AllPatterns lists every adversarial pattern.
func AllPatterns() []Pattern {
	return []Pattern{Uniform, Cluster, RowSweep, Diagonal, ClassSpread, ColumnSweep}
}

// Adversarial places k faults on a host with the given node shape following
// the pattern. classMod is the residue modulus attacked by ClassSpread
// (pass b+1 from the construction; any value >= 2 is accepted).
func Adversarial(p Pattern, shape grid.Shape, k int, classMod int, r rng.Source) (*Set, error) {
	s := NewSet(shape.Size())
	if err := AdversarialInto(s, p, shape, k, classMod, r); err != nil {
		return nil, err
	}
	return s, nil
}

// AdversarialInto is Adversarial placing the faults into s, which must be
// empty and span the shape's nodes, instead of into a new set. It draws
// the same stream and places the same faults, so a caller that places
// many bursts can keep one set and Clear it between them.
func AdversarialInto(s *Set, p Pattern, shape grid.Shape, k int, classMod int, r rng.Source) error {
	n := shape.Size()
	if s.Len() != n || s.Count() != 0 {
		return fterr.New(fterr.Invalid, "fault", "target set holds %d faults over %d nodes, want an empty set over %d", s.Count(), s.Len(), n)
	}
	if k > n {
		return fterr.New(fterr.Invalid, "fault", "%d faults exceed %d nodes", k, n)
	}
	d := len(shape)
	coord := make([]int, d)
	switch p {
	case Uniform:
		if err := s.ExactRandom(r, k); err != nil {
			return err
		}
	case Cluster:
		// Fill a near-cubical box anchored at a random corner.
		side := 1
		for pow(side+1, d) <= k {
			side++
		}
		anchor := make([]int, d)
		for i := range anchor {
			anchor[i] = r.Intn(shape[i])
		}
		placed := 0
		for idx := 0; placed < k && idx < n; idx++ {
			// Enumerate the box row-major in local coordinates.
			rem := idx
			ok := true
			for i := d - 1; i >= 0; i-- {
				c := rem % (side + 1)
				rem /= (side + 1)
				if c >= shape[i] {
					ok = false
					break
				}
				coord[i] = grid.Add(anchor[i], c, shape[i])
			}
			if rem != 0 || !ok {
				break
			}
			s.Add(shape.Index(coord))
			placed++
		}
		// Top up with random faults if the box enumeration ran out.
		if placed < k {
			if err := s.ExactRandom(r, k-placed); err != nil {
				return err
			}
		}
	case RowSweep:
		cols := 1
		for i := 1; i < d; i++ {
			cols *= shape[i]
		}
		colShape := grid.Shape(shape[1:])
		row := r.Intn(shape[0])
		placed := 0
		for placed < k {
			for z := 0; z < cols && placed < k; z++ {
				coord[0] = row
				if d > 1 {
					colShape.Coord(z, coord[1:])
				}
				idx := shape.Index(coord)
				if !s.Has(idx) {
					s.Add(idx)
					placed++
				}
			}
			row = grid.Add(row, 1, shape[0])
		}
	case ColumnSweep:
		perCol := shape[d-1]
		col := r.Intn(n / max(1, perCol))
		placed := 0
		for placed < k {
			base := col * perCol
			for j := 0; j < perCol && placed < k; j++ {
				idx := base + j
				if !s.Has(idx) {
					s.Add(idx)
					placed++
				}
			}
			col = (col + 1) % (n / max(1, perCol))
		}
	case Diagonal:
		start := make([]int, d)
		for i := range start {
			start[i] = r.Intn(shape[i])
		}
		// Walk wrapped diagonals; when one diagonal is exhausted, shift to
		// the next (offset the first coordinate by one).
		placed := 0
		for diag := 0; placed < k && diag < shape[0]; diag++ {
			span := shape[0]
			for _, v := range shape {
				if v > span {
					span = v
				}
			}
			for step := 0; step < span && placed < k; step++ {
				coord[0] = grid.Add(start[0]+diag, step, shape[0])
				for i := 1; i < d; i++ {
					coord[i] = grid.Add(start[i], step, shape[i])
				}
				idx := shape.Index(coord)
				if !s.Has(idx) {
					s.Add(idx)
					placed++
				}
			}
		}
		if placed < k {
			if err := s.ExactRandom(r, k-placed); err != nil {
				return err
			}
		}
	case ClassSpread:
		if classMod < 2 {
			classMod = 2
		}
		placed := 0
		for round := 0; placed < k; round++ {
			for c := 0; c < classMod && placed < k; c++ {
				// Random column, row pinned to residue class c.
				for i := 1; i < d; i++ {
					coord[i] = r.Intn(shape[i])
				}
				base := c + (round*(classMod))%shape[0]
				coord[0] = base % shape[0]
				idx := shape.Index(coord)
				if !s.Has(idx) {
					s.Add(idx)
					placed++
				}
			}
			if round > 4*n {
				return fterr.New(fterr.Internal, "fault", "classspread pattern failed to place %d faults", k)
			}
		}
	default:
		return fterr.New(fterr.Invalid, "fault", "unknown pattern %v", p)
	}
	if s.Count() != k {
		return fterr.New(fterr.Internal, "fault", "pattern %v placed %d faults, want %d", p, s.Count(), k)
	}
	return nil
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
