package worstcase

import (
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
)

func mustGraph(t *testing.T, p Params) *Graph {
	t.Helper()
	g, err := NewGraph(p)
	if err != nil {
		t.Fatalf("NewGraph(%+v): %v", p, err)
	}
	return g
}

func TestResolveDerivedQuantities(t *testing.T) {
	p := Params{D: 2, N: 100, K: 27} // b = 3
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if p.B() != 3 {
		t.Errorf("b = %d, want 3", p.B())
	}
	w := p.Widths()
	if len(w) != 2 || w[0] != 3 || w[1] != 9 {
		t.Errorf("widths = %v, want [3 9]", w)
	}
	if p.Capacity() < 27 {
		t.Errorf("capacity %d < k", p.Capacity())
	}
	if p.Side() < 100 {
		t.Errorf("actual side %d below requested 100", p.Side())
	}
	// Masked total per dimension is >= b^4 and the host carries it.
	if p.M()-p.Side() < 81 {
		t.Errorf("m - n = %d < b^4", p.M()-p.Side())
	}
	if p.M()%(w[0]+1) != 0 || p.M()%(w[1]+1) != 0 {
		t.Errorf("m = %d not divisible by class moduli", p.M())
	}
	if (p.M()-p.Side())%w[1] != 0 {
		t.Errorf("m - n = %d not divisible by b_d", p.M()-p.Side())
	}
	// Redundancy stays linear-ish: m = n + O(k^{4/3}).
	if p.M() > p.Side()+4*81+40 {
		t.Errorf("m = %d overshoots n + O(b^4)", p.M())
	}
}

func TestResolveRejectsBadParams(t *testing.T) {
	for _, p := range []Params{{D: 0, N: 10, K: 1}, {D: 2, N: 2, K: 1}, {D: 2, N: 10, K: 0}} {
		q := p
		if err := q.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) should fail", p)
		}
	}
}

func TestDegreeUniform(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		g := mustGraph(t, Params{D: d, N: 20, K: 4})
		want := 4 * d
		r := rng.New(1)
		for trial := 0; trial < 20; trial++ {
			u := r.Intn(g.NumNodes())
			nbrs := g.Neighbors(u, nil)
			if len(nbrs) != want {
				t.Fatalf("d=%d: node %d has %d neighbors, want %d", d, u, len(nbrs), want)
			}
			seen := map[int]bool{}
			for _, v := range nbrs {
				if v == u || seen[v] {
					t.Fatalf("d=%d: degenerate edge at %d", d, u)
				}
				seen[v] = true
				if !g.Adjacent(u, v) {
					t.Fatalf("d=%d: Adjacent(%d,%d) = false for a neighbor", d, u, v)
				}
			}
		}
	}
}

func TestNoFaults(t *testing.T) {
	g := mustGraph(t, Params{D: 2, N: 50, K: 8})
	emb, _, err := g.Tolerate(fault.NewSet(g.NumNodes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.P.Side()
	if len(emb.Map) != n*n {
		t.Errorf("embedding has %d nodes, want %d", len(emb.Map), n*n)
	}
}

func TestAllPatternsWithinBudget(t *testing.T) {
	// Theorem 3's guarantee is for ANY k faults: every adversarial pattern
	// at full budget must succeed.
	for _, d := range []int{1, 2} {
		n := []int{200, 60}[d-1]
		k := []int{30, 27}[d-1]
		g := mustGraph(t, Params{D: d, N: n, K: k})
		budget := g.P.Capacity()
		r := rng.New(uint64(d))
		for _, pat := range fault.AllPatterns() {
			faults, err := fault.Adversarial(pat, g.Shape, budget, g.P.B()+1, r.Split(uint64(pat)))
			if err != nil {
				t.Fatalf("d=%d %v: generator: %v", d, pat, err)
			}
			if _, _, err := g.Tolerate(faults, nil); err != nil {
				t.Errorf("d=%d pattern %v with k=%d (capacity %d): %v", d, pat, budget, g.P.Capacity(), err)
			}
		}
	}
}

func Test3DWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("3D instance is large")
	}
	g := mustGraph(t, Params{D: 3, N: 16, K: 4}) // b=2, capacity 128
	faults, err := fault.Adversarial(fault.Uniform, g.Shape, g.P.Capacity(), g.P.B()+1, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Tolerate(faults, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeFaults(t *testing.T) {
	g := mustGraph(t, Params{D: 2, N: 50, K: 27})
	r := rng.New(3)
	// Half the budget as node faults, half as edge faults.
	nodeFaults := fault.NewSet(g.NumNodes())
	if err := nodeFaults.ExactRandom(r, 13); err != nil {
		t.Fatal(err)
	}
	var edges [][2]int
	for len(edges) < 13 {
		u := r.Intn(g.NumNodes())
		nbrs := g.Neighbors(u, nil)
		v := nbrs[r.Intn(len(nbrs))]
		edges = append(edges, [2]int{u, v})
	}
	if _, _, err := g.Tolerate(nodeFaults, edges); err != nil {
		t.Fatal(err)
	}
}

func TestBeyondBudgetFailsGracefully(t *testing.T) {
	g := mustGraph(t, Params{D: 2, N: 40, K: 8})
	// Overload far beyond capacity.
	faults := fault.NewSet(g.NumNodes())
	faults.Bernoulli(rng.New(5), 0.4)
	if _, _, err := g.Tolerate(faults, nil); err == nil {
		t.Skip("construction absorbed 40% faults (lucky pattern)")
	}
	// Reaching here means it returned an error rather than panicking: good.
}

func TestMaskingStructure(t *testing.T) {
	g := mustGraph(t, Params{D: 2, N: 50, K: 27})
	faults := fault.NewSet(g.NumNodes())
	if err := faults.ExactRandom(rng.New(7), 27); err != nil {
		t.Fatal(err)
	}
	mk, err := g.Mask(faults)
	if err != nil {
		t.Fatal(err)
	}
	for dim, bottoms := range mk.Bottoms {
		if len(bottoms) != (g.P.M()-g.P.Side())/g.P.widths[dim] {
			t.Errorf("dimension %d has %d bands, want %d", dim, len(bottoms), (g.P.M()-g.P.Side())/g.P.widths[dim])
		}
		// All bottoms aligned to the chosen slot structure.
		mod := g.P.widths[dim] + 1
		class := grid.Sub(bottoms[0], 1, g.P.M()) % mod
		for _, b := range bottoms {
			if grid.Sub(b, 1, g.P.M())%mod != class {
				t.Errorf("dimension %d band at %d not aligned to slot structure", dim, b)
			}
		}
	}
	coords, err := g.UnmaskedCoords(mk)
	if err != nil {
		t.Fatal(err)
	}
	for dim, list := range coords {
		if len(list) != g.P.Side() {
			t.Errorf("dimension %d unmasked count %d", dim, len(list))
		}
	}
}

func TestCapacityMatchesPaperExponent(t *testing.T) {
	// d=2: capacity b^3 with ~b^4 extra per side: the paper's
	// O(n^{3/4}) faults at linear redundancy. Check monotone growth.
	prev := 0
	for _, k := range []int{8, 27, 64, 125} {
		p := Params{D: 2, N: 500, K: k}
		if err := p.Resolve(); err != nil {
			t.Fatal(err)
		}
		if p.Capacity() < k || p.Capacity() <= prev {
			t.Errorf("capacity %d not growing past %d for k=%d", p.Capacity(), prev, k)
		}
		prev = p.Capacity()
	}
}

func TestOneDimensional(t *testing.T) {
	// d=1: a cycle with jump edges tolerating k faults (the 1-D analogue
	// the paper attributes to Alon-Chung in Section 5).
	g := mustGraph(t, Params{D: 1, N: 100, K: 10})
	faults := fault.NewSet(g.NumNodes())
	if err := faults.ExactRandom(rng.New(9), g.P.Capacity()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Tolerate(faults, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRandomFaultSetsWithinCapacityProperty: any random fault set of size
// <= capacity must be tolerated (Theorem 3 is a worst-case guarantee, so
// random sets are the easy case — but the property must never fail).
func TestRandomFaultSetsWithinCapacityProperty(t *testing.T) {
	g := mustGraph(t, Params{D: 2, N: 60, K: 27})
	cap := g.P.Capacity()
	f := func(seed uint64, kByte uint8) bool {
		k := 1 + int(kByte)%cap
		faults := fault.NewSet(g.NumNodes())
		if err := faults.ExactRandom(rng.New(seed), k); err != nil {
			return false
		}
		_, _, err := g.Tolerate(faults, nil)
		return err == nil
	}
	if err := quickCheck(f, 40); err != nil {
		t.Error(err)
	}
}

// TestMaskIdempotent: masking the same fault set twice yields identical
// band families (the cascade is deterministic).
func TestMaskIdempotent(t *testing.T) {
	g := mustGraph(t, Params{D: 2, N: 60, K: 27})
	faults := fault.NewSet(g.NumNodes())
	if err := faults.ExactRandom(rng.New(5), 20); err != nil {
		t.Fatal(err)
	}
	a, err := g.Mask(faults)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Mask(faults)
	if err != nil {
		t.Fatal(err)
	}
	for dim := range a.Bottoms {
		if len(a.Bottoms[dim]) != len(b.Bottoms[dim]) {
			t.Fatalf("dimension %d band counts differ", dim)
		}
		for i := range a.Bottoms[dim] {
			if a.Bottoms[dim][i] != b.Bottoms[dim][i] {
				t.Fatalf("dimension %d band %d differs", dim, i)
			}
		}
	}
}

// TestEmbeddingAvoidsAllBands: the extracted torus never uses a masked
// coordinate in any dimension.
func TestEmbeddingAvoidsAllBands(t *testing.T) {
	g := mustGraph(t, Params{D: 2, N: 60, K: 27})
	faults := fault.NewSet(g.NumNodes())
	if err := faults.ExactRandom(rng.New(9), g.P.Capacity()); err != nil {
		t.Fatal(err)
	}
	emb, mk, err := g.Tolerate(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	masked := make([]map[int]bool, g.P.D)
	for dim := range masked {
		masked[dim] = map[int]bool{}
		for _, b := range mk.Bottoms[dim] {
			for o := 0; o < g.P.widths[dim]; o++ {
				masked[dim][grid.Add(b, o, g.P.M())] = true
			}
		}
	}
	coord := make([]int, g.P.D)
	for _, h := range emb.Map {
		g.Shape.Coord(h, coord)
		for dim, c := range coord {
			if masked[dim][c] {
				t.Fatalf("embedding uses masked coordinate %d in dimension %d", c, dim)
			}
		}
	}
}

func quickCheck(f func(uint64, uint8) bool, n int) error {
	r := rng.New(12345)
	for i := 0; i < n; i++ {
		if !f(r.Uint64(), uint8(r.Intn(256))) {
			return errProperty(i)
		}
	}
	return nil
}

type errProperty int

func (e errProperty) Error() string { return "property failed" }
