package parsim

import (
	"math"
	"testing"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
)

func idealMachine(t *testing.T, sides ...int) *Machine {
	t.Helper()
	return NewIdeal(grid.Shape(sides))
}

func TestRouteDimensionOrdered(t *testing.T) {
	m := idealMachine(t, 8, 8)
	path := m.Route(m.Shape.Index([]int{0, 0}), m.Shape.Index([]int{2, 3}))
	if len(path)-1 != 5 {
		t.Fatalf("hops = %d, want 5", len(path)-1)
	}
	// Dimension order: first two steps move dimension 0.
	c1 := m.Shape.Coord(path[1], nil)
	if c1[1] != 0 {
		t.Errorf("first hop moved dimension 1: %v", c1)
	}
	// Consecutive path nodes must be torus neighbors.
	for i := 1; i < len(path); i++ {
		found := false
		for _, nb := range m.Shape.TorusNeighbors(path[i-1], nil) {
			if nb == path[i] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("path step %d-%d not a torus edge", path[i-1], path[i])
		}
	}
}

func TestRouteTakesShortWayAround(t *testing.T) {
	m := idealMachine(t, 10)
	if got := len(m.Route(0, 9)) - 1; got != 1 {
		t.Errorf("wraparound hop count = %d, want 1", got)
	}
	if got := len(m.Route(0, 5)) - 1; got != 5 {
		t.Errorf("antipodal hop count = %d, want 5", got)
	}
}

func TestRouteSelf(t *testing.T) {
	m := idealMachine(t, 5, 5)
	if got := len(m.Route(7, 7)) - 1; got != 0 {
		t.Errorf("self route hops = %d", got)
	}
}

func TestPermutationStats(t *testing.T) {
	m := idealMachine(t, 6, 6)
	perm := make([]int, m.P())
	for i := range perm {
		perm[i] = i // identity: zero traffic
	}
	st, err := m.Permutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalHop != 0 || st.MaxLink != 0 {
		t.Errorf("identity permutation has traffic: %+v", st)
	}
	// A shift permutation: every packet moves one hop; every link used once.
	coord := make([]int, 2)
	for i := range perm {
		m.Shape.Coord(i, coord)
		coord[1] = grid.Add(coord[1], 1, 6)
		perm[i] = m.Shape.Index(coord)
	}
	st, err = m.Permutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgHops != 1 || st.MaxLink != 1 {
		t.Errorf("shift permutation stats: %+v", st)
	}
}

func TestPermutationRejectsWrongLength(t *testing.T) {
	m := idealMachine(t, 4, 4)
	if _, err := m.Permutation([]int{0}); err == nil {
		t.Error("short permutation accepted")
	}
}

func TestStencilConservesConstantField(t *testing.T) {
	m := idealMachine(t, 8, 8)
	init := make([]float64, m.P())
	for i := range init {
		init[i] = 3.5
	}
	out, err := m.Stencil(init, 10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-3.5) > 1e-12 {
			t.Fatalf("constant field drifted at %d: %v", i, v)
		}
	}
}

func TestStencilConvergesToMean(t *testing.T) {
	m := idealMachine(t, 6, 6)
	init := make([]float64, m.P())
	init[0] = float64(m.P()) // a single hot spot; mean = 1
	out, err := m.Stencil(init, 2000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("diffusion did not converge at %d: %v", i, v)
		}
	}
}

func TestStencilRejectsWrongLength(t *testing.T) {
	m := idealMachine(t, 4, 4)
	if _, err := m.Stencil([]float64{1}, 1, 0.5); err == nil {
		t.Error("short field accepted")
	}
}

func TestAllReduceSum(t *testing.T) {
	m := idealMachine(t, 4, 5)
	vals := make([]float64, m.P())
	want := 0.0
	for i := range vals {
		vals[i] = float64(i)
		want += float64(i)
	}
	got, steps, err := m.AllReduceSum(vals)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if steps != 3+4 {
		t.Errorf("steps = %d, want 7", steps)
	}
	if _, _, err := m.AllReduceSum(vals[:3]); err == nil {
		t.Error("short input accepted")
	}
}

// TestReconfiguredMachineMatchesIdeal is the headline test: a machine
// extracted from a faulty B^2_n computes bit-identical results to a
// pristine torus of the same logical shape.
func TestReconfiguredMachineMatchesIdeal(t *testing.T) {
	p := core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}
	g, err := core.NewGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.NewSet(g.NumNodes())
	r := rng.New(77)
	for i := 0; i < 6; i++ {
		faults.Add(r.Intn(g.NumNodes()))
	}
	res, err := g.ContainTorus(faults, core.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := New(res.Embedding, g, faults)
	if err != nil {
		t.Fatal(err)
	}
	ideal := NewIdeal(recon.Shape)

	init := make([]float64, recon.P())
	rr := rng.New(5)
	for i := range init {
		init[i] = rr.Float64()
	}
	a, err := recon.Stencil(init, 25, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ideal.Stencil(init, 25, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(a, b); d != 0 {
		t.Errorf("reconfigured stencil differs from ideal by %v", d)
	}
	// The machine records where each logical processor physically lives.
	if len(recon.HostOf) != recon.P() {
		t.Errorf("HostOf has %d entries", len(recon.HostOf))
	}
	for _, h := range recon.HostOf {
		if faults.Has(h) {
			t.Fatalf("logical processor on faulty host node %d", h)
		}
	}
}

func TestNewRejectsBrokenEmbedding(t *testing.T) {
	p := core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}
	g, err := core.NewGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.NewSet(g.NumNodes())
	res, err := g.ContainTorus(faults, core.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Embedding.Map[0] = res.Embedding.Map[1] // break injectivity
	if _, err := New(res.Embedding, g, faults); err == nil {
		t.Error("broken embedding accepted")
	}
}

func TestMaxDiff(t *testing.T) {
	if MaxDiff([]float64{1, 2}, []float64{1, 5}) != 3 {
		t.Error("MaxDiff wrong")
	}
	if MaxDiff(nil, nil) != 0 {
		t.Error("MaxDiff of empty should be 0")
	}
}
