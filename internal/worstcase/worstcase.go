// Package worstcase implements D^d_{n,k}, the paper's Theorem 3
// construction tolerating any k worst-case node and edge faults.
//
// For d = 2 (Theorem 13): with b = k^{1/3}, the host is an m x m torus,
// m ~ n + b^4, augmented with jump edges (i +- (b+1), j) and
// (i, j +- (b^2+1)); degree 8. Masking uses straight bands only: b^3
// horizontal bands of width b and b^2 vertical bands of width b^2. The
// pigeonhole argument: some residue class i mod (b+1) of rows carries at
// most b^2 faults; mask all faults outside class-i rows with horizontal
// bands lying strictly between class rows, then find a residue class
// j mod (b^2+1) of columns with no remaining faults and finish with
// vertical bands.
//
// For general d: b = k^{1/(2^d-1)}, dimension i uses k_i = b^{2^d - 2^{i-1}}
// bands of width b_i = b^{2^{i-1}} and jump edges over b_i nodes; each stage
// passes at most k_i / (b_i + 1) <= k_{i+1} faults to the next, and the last
// stage pigeonholes into an empty class.
//
// Divisibility refinement: the residue-class argument needs (b_i + 1) | m
// for every i and b_d | (m - n); m is grown minimally above n + b^{2^d} to
// satisfy both (a CRT search; the classes are pairwise coprime to b so a
// solution always exists nearby).
package worstcase

import (
	"fmt"
	"slices"

	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
	"ftnet/internal/torus"
)

// Params fixes an instance of D^d_{n,k}. N is the minimum guest side; the
// paper's divisibility round-offs are resolved by letting the actual side
// Side() land at the nearest value >= N compatible with the residue-class
// structure (the divisibility refinement of the package comment). The
// overshoot is bounded by lcm(b_i+1) + b_d, i.e. o(k^{2^d/(2^d-1)}).
type Params struct {
	D int // dimension >= 1
	N int // minimum guest torus side, >= 3
	K int // worst-case fault budget >= 1

	// Derived by Resolve.
	b      int   // base b = ceil(k^{1/(2^d-1)}), at least 2
	widths []int // widths[i] = b^{2^i}, the band width of dimension i
	m      int   // host side
	n      int   // actual guest side, >= N
	counts []int // counts[i] = (m-n)/widths[i], bands per dimension
}

// Resolve computes the derived quantities and validates the instance.
func (p *Params) Resolve() error {
	if p.D < 1 {
		return fmt.Errorf("worstcase: dimension %d < 1", p.D)
	}
	if p.N < 3 {
		return fmt.Errorf("worstcase: side %d < 3", p.N)
	}
	if p.K < 1 {
		return fmt.Errorf("worstcase: fault budget %d < 1", p.K)
	}
	// b = smallest integer with b^(2^d - 1) >= k, floored at 2.
	exp := 1<<uint(p.D) - 1
	b := 2
	for ipow(b, exp) < p.K {
		b++
	}
	p.b = b
	p.widths = make([]int, p.D)
	p.widths[0] = b
	for i := 1; i < p.D; i++ {
		p.widths[i] = p.widths[i-1] * p.widths[i-1]
	}
	wd := p.widths[p.D-1]
	extra := wd * wd // b^{2^d}, the total masked width per dimension
	masked := ((extra + wd - 1) / wd) * wd
	l := 1
	for _, w := range p.widths {
		l = lcm(l, w+1)
	}
	// Smallest multiple of l with m - masked >= N.
	m := ((p.N + masked + l - 1) / l) * l
	p.m = m
	p.n = m - masked
	p.counts = make([]int, p.D)
	for i, w := range p.widths {
		p.counts[i] = masked / w
		slots := m / (w + 1)
		if p.counts[i] > slots {
			return fmt.Errorf("worstcase: dimension %d needs %d bands but has only %d slots (n too small for k)",
				i, p.counts[i], slots)
		}
	}
	if m <= 2*(wd+1) {
		return fmt.Errorf("worstcase: host side %d too small for jump edges of length %d", m, wd+1)
	}
	return nil
}

// Side returns the actual guest torus side n (>= the requested N).
func (p *Params) Side() int { return p.n }

// B returns the derived base b.
func (p *Params) B() int { return p.b }

// M returns the host side m.
func (p *Params) M() int { return p.m }

// Widths returns the per-dimension band widths b_i.
func (p *Params) Widths() []int { return append([]int(nil), p.widths...) }

// Capacity returns b^{2^d - 1}, the number of worst-case faults the
// instance provably tolerates (>= K by construction).
func (p *Params) Capacity() int { return ipow(p.b, 1<<uint(p.D)-1) }

// NumNodes returns m^d.
func (p *Params) NumNodes() int { return ipow(p.m, p.D) }

// Degree returns 4d: 2d torus edges plus 2d jump edges.
func (p *Params) Degree() int { return 4 * p.D }

func ipow(base, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= base
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// Graph is the host network D^d_{n,k}: the d-dimensional torus of side m
// with, in each dimension i, jump edges over b_i nodes (step b_i + 1).
type Graph struct {
	P     Params
	Shape grid.Shape
}

// NewGraph resolves the parameters and returns the host.
func NewGraph(p Params) (*Graph, error) {
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	return &Graph{P: p, Shape: grid.Uniform(p.D, p.m)}, nil
}

// NumNodes returns the host node count.
func (g *Graph) NumNodes() int { return g.Shape.Size() }

// Neighbors appends the 4d neighbors of idx.
func (g *Graph) Neighbors(idx int, buf []int) []int {
	coord := g.Shape.Coord(idx, make([]int, g.P.D))
	for i := range coord {
		orig := coord[i]
		for _, step := range [2]int{1, g.P.widths[i] + 1} {
			coord[i] = grid.Add(orig, step, g.P.m)
			buf = append(buf, g.Shape.Index(coord))
			coord[i] = grid.Sub(orig, step, g.P.m)
			buf = append(buf, g.Shape.Index(coord))
		}
		coord[i] = orig
	}
	return buf
}

// Adjacent reports adjacency in the host.
func (g *Graph) Adjacent(u, v int) bool {
	if u == v {
		return false
	}
	cu := g.Shape.Coord(u, nil)
	cv := g.Shape.Coord(v, nil)
	diffDim := -1
	for i := range cu {
		if cu[i] != cv[i] {
			if diffDim >= 0 {
				return false
			}
			diffDim = i
		}
	}
	if diffDim < 0 {
		return false
	}
	d := grid.Dist(cu[diffDim], cv[diffDim], g.P.m)
	return d == 1 || d == g.P.widths[diffDim]+1
}

// Masking is a set of straight bands per dimension: Bottoms[i] lists the
// band bottoms of dimension i (each masking widths[i] consecutive
// hyperplanes), sorted. Passed[i] records how many faults stage i received
// from earlier stages (Passed[0] is the total fault count), matching the
// k_i accounting of the paper's cascade.
type Masking struct {
	Bottoms [][]int
	Passed  []int
}

// Mask runs the per-dimension pigeonhole cascade over the faulty nodes.
// A fault set that exceeds what the instance tolerates (more than
// Capacity() faults, or a pattern outside the guarantee) fails with an
// fterr.NotTolerated error; any other error is a bug.
func (g *Graph) Mask(faults *fault.Set) (*Masking, error) {
	p := g.P
	m := p.m
	type pt = []int
	var remaining []pt
	faults.ForEach(func(idx int) {
		remaining = append(remaining, g.Shape.Coord(idx, make([]int, p.D)))
	})
	mk := &Masking{Bottoms: make([][]int, p.D), Passed: make([]int, p.D)}
	for dim := 0; dim < p.D; dim++ {
		mk.Passed[dim] = len(remaining)
		w := p.widths[dim]
		mod := w + 1
		numClasses := mod // m % mod == 0, classes are uniform
		classCount := make([]int, numClasses)
		for _, f := range remaining {
			classCount[f[dim]%mod]++
		}
		best := 0
		for c := 1; c < numClasses; c++ {
			if classCount[c] < classCount[best] {
				best = c
			}
		}
		if dim == p.D-1 && classCount[best] > 0 {
			return nil, fterr.New(fterr.NotTolerated, "worstcase", "final dimension has no fault-free residue class (%d faults remain; budget exceeded)",
				len(remaining))
		}
		// Mask every fault outside class `best` with a band in its slot.
		slotSet := make(map[int]struct{})
		var next []pt
		for _, f := range remaining {
			x := f[dim]
			if x%mod == best {
				next = append(next, f)
				continue
			}
			slot := grid.FwdGap(best+1, x, m) / mod
			slotSet[slot] = struct{}{}
		}
		if len(slotSet) > p.counts[dim] {
			return nil, fterr.New(fterr.NotTolerated, "worstcase", "dimension %d needs %d bands, budget is %d (budget exceeded)",
				dim, len(slotSet), p.counts[dim])
		}
		// Pad with unused slots up to exactly counts[dim] bands so the
		// unmasked part has side exactly n.
		totalSlots := m / mod
		for s := 0; s < totalSlots && len(slotSet) < p.counts[dim]; s++ {
			if _, ok := slotSet[s]; !ok {
				slotSet[s] = struct{}{}
			}
		}
		if len(slotSet) != p.counts[dim] {
			return nil, fmt.Errorf("worstcase: internal: dimension %d has %d bands, want %d", dim, len(slotSet), p.counts[dim])
		}
		bottoms := make([]int, 0, len(slotSet))
		for s := range slotSet {
			bottoms = append(bottoms, grid.Add(best+1, s*mod, m))
		}
		slices.Sort(bottoms)
		mk.Bottoms[dim] = bottoms
		remaining = next
	}
	if len(remaining) != 0 {
		return nil, fmt.Errorf("worstcase: internal: %d faults left after cascade", len(remaining))
	}
	return mk, nil
}

// UnmaskedCoords returns, per dimension, the sorted coordinates not covered
// by any band; each list has exactly n entries and consecutive entries
// (cyclically) differ by 1 or widths[i]+1, matching the host's edges.
func (g *Graph) UnmaskedCoords(mk *Masking) ([][]int, error) {
	p := g.P
	out := make([][]int, p.D)
	for dim := 0; dim < p.D; dim++ {
		w := p.widths[dim]
		masked := make([]bool, p.m)
		for _, b := range mk.Bottoms[dim] {
			for o := 0; o < w; o++ {
				masked[grid.Add(b, o, p.m)] = true
			}
		}
		list := make([]int, 0, p.n)
		for x := 0; x < p.m; x++ {
			if !masked[x] {
				list = append(list, x)
			}
		}
		if len(list) != p.n {
			return nil, fmt.Errorf("worstcase: dimension %d has %d unmasked coordinates, want %d (bands overlap)",
				dim, len(list), p.n)
		}
		for i := range list {
			next := list[(i+1)%len(list)]
			gap := grid.FwdGap(list[i], next, p.m)
			if gap != 1 && gap != w+1 {
				return nil, fmt.Errorf("worstcase: dimension %d gap %d between unmasked coords (want 1 or %d)",
					dim, gap, w+1)
			}
		}
		out[dim] = list
	}
	return out, nil
}

// Extract builds the embedding of the n-torus onto the unmasked product.
func (g *Graph) Extract(mk *Masking) (*embed.Embedding, error) {
	coords, err := g.UnmaskedCoords(mk)
	if err != nil {
		return nil, err
	}
	guest, err := torus.NewUniform(torus.TorusKind, g.P.D, g.P.n)
	if err != nil {
		return nil, err
	}
	e := embed.New(guest)
	gc := make([]int, g.P.D)
	hc := make([]int, g.P.D)
	for gi := 0; gi < guest.N(); gi++ {
		guest.Shape.Coord(gi, gc)
		for i, x := range gc {
			hc[i] = coords[i][x]
		}
		e.Map[gi] = g.Shape.Index(hc)
	}
	return e, nil
}

// Tolerate runs the full Theorem 3 pipeline: edge faults are charged to an
// endpoint (as in the paper's proof), the cascade masks everything, and the
// resulting embedding is verified against both node and edge faults. The
// charged endpoint is fault.ChargedEndpoint, the smaller index, so the
// embedding depends on the fault sets alone, not on the order in which an
// edge's endpoints are listed.
func (g *Graph) Tolerate(nodeFaults *fault.Set, edgeFaults [][2]int) (*embed.Embedding, *Masking, error) {
	effective := nodeFaults.Clone()
	edges := fault.NewEdgeSet()
	for _, e := range edgeFaults {
		edges.Add(e[0], e[1])
		effective.Add(fault.ChargedEndpoint(e[0], e[1]))
	}
	mk, err := g.Mask(effective)
	if err != nil {
		return nil, nil, err
	}
	emb, err := g.Extract(mk)
	if err != nil {
		return nil, nil, err
	}
	// Verifying against the effective set is strictly stronger than against
	// the original node faults (effective is a superset).
	if err := emb.Verify(g, effective, edges.Has); err != nil {
		return nil, nil, err
	}
	return emb, mk, nil
}
