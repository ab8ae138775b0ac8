package baseline

import (
	"fmt"
	"sort"

	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/torus"
)

// SpareGrid is a BCH-style worst-case comparator: an (n+s) x (n+s) mesh
// with s spare rows, s spare columns, and bypass links of reach L in each
// direction along both axes (degree 4L). Recovery discards every row and
// column containing a fault; it succeeds iff at most s rows and s columns
// are faulty and no run of more than L-1 consecutive rows (or columns) is
// discarded — the bounded bypass cannot jump further.
type SpareGrid struct {
	N int // guest mesh side
	S int // spare rows = spare columns
	L int // bypass reach (L=1 means plain mesh edges only)
}

// NewSpareGrid validates the parameters.
func NewSpareGrid(n, s, l int) (*SpareGrid, error) {
	if n < 2 || s < 0 || l < 1 {
		return nil, fmt.Errorf("baseline: invalid spare grid n=%d s=%d L=%d", n, s, l)
	}
	return &SpareGrid{N: n, S: s, L: l}, nil
}

// Side returns the host side n+s.
func (sg *SpareGrid) Side() int { return sg.N + sg.S }

// NumNodes returns (n+s)^2.
func (sg *SpareGrid) NumNodes() int { return sg.Side() * sg.Side() }

// Adjacent reports host adjacency: same row or column, offset 1..L.
func (sg *SpareGrid) Adjacent(u, v int) bool {
	if u == v {
		return false
	}
	side := sg.Side()
	ru, cu := u/side, u%side
	rv, cv := v/side, v%side
	if ru == rv {
		d := cu - cv
		if d < 0 {
			d = -d
		}
		return d <= sg.L
	}
	if cu == cv {
		d := ru - rv
		if d < 0 {
			d = -d
		}
		return d <= sg.L
	}
	return false
}

// Recover attempts to extract a fault-free n x n mesh by discarding faulty
// rows and columns. It returns a descriptive error when the fault pattern
// exceeds the scheme's tolerance (too many faulty lines, or a cluster
// deeper than the bypass reach).
func (sg *SpareGrid) Recover(faults *fault.Set) (*embed.Embedding, error) {
	side := sg.Side()
	badRow := map[int]bool{}
	badCol := map[int]bool{}
	faults.ForEach(func(v int) {
		badRow[v/side] = true
		badCol[v%side] = true
	})
	if len(badRow) > sg.S {
		return nil, fmt.Errorf("baseline: %d faulty rows exceed %d spares", len(badRow), sg.S)
	}
	if len(badCol) > sg.S {
		return nil, fmt.Errorf("baseline: %d faulty columns exceed %d spares", len(badCol), sg.S)
	}
	keepRows, err := sg.keepLines(badRow, "row")
	if err != nil {
		return nil, err
	}
	keepCols, err := sg.keepLines(badCol, "column")
	if err != nil {
		return nil, err
	}
	guest, err := torus.NewUniform(torus.MeshKind, 2, sg.N)
	if err != nil {
		return nil, err
	}
	e := embed.New(guest)
	for i := 0; i < sg.N; i++ {
		for j := 0; j < sg.N; j++ {
			e.Map[i*sg.N+j] = keepRows[i]*side + keepCols[j]
		}
	}
	if err := e.Verify(sg, faults, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// keepLines returns the first n kept line indices, checking the bypass
// reach: consecutive kept lines may be at most L apart.
func (sg *SpareGrid) keepLines(bad map[int]bool, kind string) ([]int, error) {
	side := sg.Side()
	keep := make([]int, 0, sg.N)
	for x := 0; x < side && len(keep) < sg.N; x++ {
		if !bad[x] {
			keep = append(keep, x)
		}
	}
	if len(keep) < sg.N {
		return nil, fmt.Errorf("baseline: only %d usable %ss", len(keep), kind)
	}
	sort.Ints(keep)
	// A leading or trailing gap only shifts the mesh origin (the guest has
	// no wrap), so only gaps between consecutive kept lines matter.
	for i := 1; i < sg.N; i++ {
		if keep[i]-keep[i-1] > sg.L {
			return nil, fmt.Errorf("baseline: %d consecutive faulty %ss exceed bypass reach %d",
				keep[i]-keep[i-1]-1, kind, sg.L-1)
		}
	}
	return keep, nil
}

// AnalyticBCH returns the resource claims of the real Bruck-Cypher-Ho
// construction [BCH93b] for the n x n mesh tolerating k worst-case faults,
// as cited by the paper's introduction: degree 13 and n^2 + O(k^3) nodes
// (so k = O(n^{2/3}) at linear redundancy). Used for the E9 comparison
// table alongside the measured SpareGrid comparator.
func AnalyticBCH(n, k int) (degree int, nodes int) {
	return 13, n*n + k*k*k
}
