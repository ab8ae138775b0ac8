package core

import (
	"errors"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
)

// testParams2D is small enough for fast tests: n=432, m=648, 280k nodes.
func testParams2D() Params { return Params{D: 2, W: 6, Pitch: 18, Scale: 1} }

// testParams2DTight has only one band per slab.
func testParams2DTight() Params { return Params{D: 2, W: 4, Pitch: 16, Scale: 1} }

func mustGraph(t *testing.T, p Params) *Graph {
	t.Helper()
	g, err := NewGraph(p)
	if err != nil {
		t.Fatalf("NewGraph(%v): %v", p, err)
	}
	return g
}

func TestParamsDerived(t *testing.T) {
	p := testParams2D()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := p.N(), 432; got != want {
		t.Errorf("N = %d, want %d", got, want)
	}
	if got, want := p.M(), 648; got != want {
		t.Errorf("M = %d, want %d", got, want)
	}
	if got, want := p.K(), 36; got != want {
		t.Errorf("K = %d, want %d", got, want)
	}
	if got, want := p.NumSlabs()*p.PerSlab(), p.K(); got != want {
		t.Errorf("slabs*perSlab = %d, want K = %d", got, want)
	}
	if got, want := p.M()-p.K()*p.W, p.N(); got != want {
		t.Errorf("unmasked per column = %d, want n = %d", got, want)
	}
	// Node redundancy: m*(n^{d-1}) = (1+eps) n^d exactly.
	if got, want := float64(p.M())/float64(p.N()), 1+p.Eps(); abs(got-want) > 1e-12 {
		t.Errorf("m/n = %v, want 1+eps = %v", got, want)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFitParams(t *testing.T) {
	for _, minSide := range []int{64, 300, 1000, 5000} {
		p, err := FitParams(2, minSide, 0.5)
		if err != nil {
			t.Fatalf("FitParams(2, %d): %v", minSide, err)
		}
		if p.N() < minSide {
			t.Errorf("FitParams(2, %d): side %d too small", minSide, p.N())
		}
		if p.Eps() > 0.5+1e-9 {
			t.Errorf("FitParams(2, %d): eps %v > 0.5", minSide, p.Eps())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("FitParams(2, %d): invalid: %v", minSide, err)
		}
	}
	if _, err := FitParams(2, 100, -1); err == nil {
		t.Error("FitParams with negative eps should fail")
	}
}

func TestGraphDegreeAndSymmetry(t *testing.T) {
	for _, p := range []Params{testParams2D(), {D: 3, W: 4, Pitch: 16, Scale: 1}} {
		g := mustGraph(t, p)
		r := rng.New(1)
		want := 6*p.D - 2
		for trial := 0; trial < 50; trial++ {
			u := r.Intn(g.NumNodes())
			nbrs := g.Neighbors(u, nil)
			if len(nbrs) != want {
				t.Fatalf("d=%d: node %d has %d neighbors, want %d", p.D, u, len(nbrs), want)
			}
			seen := map[int]bool{}
			for _, v := range nbrs {
				if v == u {
					t.Fatalf("d=%d: self loop at %d", p.D, u)
				}
				if seen[v] {
					t.Fatalf("d=%d: duplicate edge %d-%d", p.D, u, v)
				}
				seen[v] = true
				if !g.Adjacent(u, v) || !g.Adjacent(v, u) {
					t.Fatalf("d=%d: Adjacent disagrees with Neighbors for %d-%d", p.D, u, v)
				}
				if g.Classify(u, v) == EdgeNone {
					t.Fatalf("d=%d: Classify(%d,%d) = none for a real edge", p.D, u, v)
				}
				// v must list u back.
				back := false
				for _, x := range g.Neighbors(v, nil) {
					if x == u {
						back = true
						break
					}
				}
				if !back {
					t.Fatalf("d=%d: edge %d-%d not symmetric", p.D, u, v)
				}
			}
			// A non-neighbor pair should not be adjacent.
			v := r.Intn(g.NumNodes())
			if v != u && !seen[v] && g.Adjacent(u, v) {
				t.Fatalf("d=%d: Adjacent(%d,%d) true but not in neighbor list", p.D, u, v)
			}
		}
	}
}

func TestEdgeClassCounts(t *testing.T) {
	for _, p := range []Params{testParams2D(), {D: 3, W: 4, Pitch: 16, Scale: 1}} {
		g := mustGraph(t, p)
		r := rng.New(23)
		for trial := 0; trial < 20; trial++ {
			u := r.Intn(g.NumNodes())
			counts := map[EdgeKind]int{}
			for _, v := range g.Neighbors(u, nil) {
				counts[g.Classify(u, v)]++
			}
			if counts[EdgeNone] != 0 {
				t.Fatalf("d=%d: %d unclassified edges at %d", p.D, counts[EdgeNone], u)
			}
			if counts[EdgeTorus] != 2*p.D {
				t.Fatalf("d=%d: %d torus edges, want %d", p.D, counts[EdgeTorus], 2*p.D)
			}
			if counts[EdgeVJump] != 2 {
				t.Fatalf("d=%d: %d vertical jumps, want 2", p.D, counts[EdgeVJump])
			}
			if counts[EdgeDJump] != 4*(p.D-1) {
				t.Fatalf("d=%d: %d diagonal jumps, want %d", p.D, counts[EdgeDJump], 4*(p.D-1))
			}
		}
	}
}

// EdgeKind classifies a host edge: the oracle TestEdgeClassCounts uses to
// pin the paper's degree split (2d torus edges, 2 vertical jumps and
// 4(d-1) diagonal jumps per node).
type EdgeKind int

const (
	// EdgeNone means the pair is not adjacent.
	EdgeNone EdgeKind = iota
	// EdgeTorus is an inherited torus edge.
	EdgeTorus
	// EdgeVJump is a vertical jump over a band (+-(b+1) in dimension 0).
	EdgeVJump
	// EdgeDJump is a diagonal jump over a band (+-b into an adjacent column).
	EdgeDJump
)

// Classify returns the edge class of the pair (u, v), ignoring ablation
// switches.
func (g *Graph) Classify(u, v int) EdgeKind {
	iu, zu := g.NodeOf(u)
	iv, zv := g.NodeOf(v)
	di := grid.Dist(iu, iv, g.P.M())
	if zu == zv {
		switch di {
		case 1:
			return EdgeTorus
		case g.P.W + 1:
			return EdgeVJump
		}
		return EdgeNone
	}
	if !g.columnsAdjacent(zu, zv) {
		return EdgeNone
	}
	switch di {
	case 0:
		return EdgeTorus
	case g.P.W:
		return EdgeDJump
	}
	return EdgeNone
}

func roundtrip(t *testing.T, g *Graph, faults *fault.Set) *Result {
	t.Helper()
	res, err := g.ContainTorus(faults, ExtractOptions{CheckConsistency: true})
	if err != nil {
		t.Fatalf("ContainTorus with %d faults: %v", faults.Count(), err)
	}
	return res
}

func TestNoFaultsRoundtrip(t *testing.T) {
	for _, p := range []Params{testParams2D(), testParams2DTight()} {
		g := mustGraph(t, p)
		res := roundtrip(t, g, fault.NewSet(g.NumNodes()))
		if res.Report.Boxes != 0 {
			t.Errorf("%v: expected 0 boxes, got %d", p, res.Report.Boxes)
		}
		if res.Bands.K() != p.K() {
			t.Errorf("%v: got %d bands, want %d", p, res.Bands.K(), p.K())
		}
	}
}

func TestSingleFaultRoundtrip(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		faults := fault.NewSet(g.NumNodes())
		faults.Add(r.Intn(g.NumNodes()))
		res := roundtrip(t, g, faults)
		if res.Report.Boxes != 1 {
			t.Errorf("trial %d: expected 1 box, got %d", trial, res.Report.Boxes)
		}
		if res.Report.Segments != 1 {
			t.Errorf("trial %d: expected 1 segment, got %d", trial, res.Report.Segments)
		}
	}
}

func TestFaultNearSlabBoundary(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	tile := p.Tile()
	// Faults at the very first and last rows of slabs, including row 0 and
	// row m-1 (wrap), stress segment-to-slab assignment.
	for _, row := range []int{0, tile - 1, tile, 2*tile - 1, p.M() - 1, p.M() - tile} {
		faults := fault.NewSet(g.NumNodes())
		faults.Add(g.NodeIndex(row, 5))
		roundtrip(t, g, faults)
	}
}

func TestClusteredFaultsRoundtrip(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	// A tight cluster inside one tile.
	faults := fault.NewSet(g.NumNodes())
	base := g.NodeIndex(40, 40)
	for _, off := range []int{0, 1, 2} {
		faults.Add(base + off)              // same row, neighboring columns
		faults.Add(g.NodeIndex(41+off, 40)) // same column, neighboring rows
	}
	res := roundtrip(t, g, faults)
	if res.Report.Boxes != 1 {
		t.Errorf("expected 1 box, got %d", res.Report.Boxes)
	}
}

func TestAdjacentTilesMerge(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	tile := p.Tile()
	faults := fault.NewSet(g.NumNodes())
	// Faults in diagonally adjacent tiles must end up in one box.
	faults.Add(g.NodeIndex(tile-1, tile-1))
	faults.Add(g.NodeIndex(tile, tile))
	res := roundtrip(t, g, faults)
	if res.Report.Boxes != 1 {
		t.Errorf("diagonal faulty tiles: expected merged box, got %d boxes", res.Report.Boxes)
	}
}

func TestWrapAroundFaults(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	faults := fault.NewSet(g.NumNodes())
	// Faults straddling the wrap in both dimensions.
	faults.Add(g.NodeIndex(p.M()-1, p.N()-1))
	faults.Add(g.NodeIndex(0, 0))
	res := roundtrip(t, g, faults)
	if res.Report.Boxes != 1 {
		t.Errorf("wrap-adjacent faults: expected 1 box, got %d", res.Report.Boxes)
	}
}

func TestRandomFaultsRoundtrip(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	r := rng.New(42)
	successes, unhealthy := 0, 0
	for trial := 0; trial < 30; trial++ {
		faults := fault.NewSet(g.NumNodes())
		faults.Bernoulli(r.Split(uint64(trial)), 1e-4) // ~28 faults per trial
		res, err := g.ContainTorus(faults, ExtractOptions{CheckConsistency: true})
		if err != nil {
			var ue *UnhealthyError
			if errors.As(err, &ue) {
				unhealthy++
				continue
			}
			t.Fatalf("trial %d: unexpected error: %v", trial, err)
		}
		successes++
		if err := res.Bands.Validate(); err != nil {
			t.Fatalf("trial %d: bands invalid: %v", trial, err)
		}
	}
	if successes == 0 {
		t.Errorf("no successful trials (unhealthy=%d); placement too fragile", unhealthy)
	}
	t.Logf("random faults: %d successes, %d unhealthy", successes, unhealthy)
}

func TestTheoremProbabilityRoundtrip(t *testing.T) {
	// At the failure probability Theorem 2 actually assumes, survival
	// should be overwhelming.
	p := testParams2D()
	g := mustGraph(t, p)
	prob := p.TheoremFailureProb()
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		faults := fault.NewSet(g.NumNodes())
		faults.Bernoulli(r.Split(uint64(trial)), prob)
		if _, err := g.ContainTorus(faults, ExtractOptions{CheckConsistency: true}); err != nil {
			t.Fatalf("trial %d with p=log^-3d n: %v", trial, err)
		}
	}
}

func TestDenseFaultsReportUnhealthy(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	faults := fault.NewSet(g.NumNodes())
	faults.Bernoulli(rng.New(9), 0.05)
	_, err := g.ContainTorus(faults, ExtractOptions{})
	if err == nil {
		t.Skip("placement survived 5% faults; no unhealthy case to check")
	}
	var ue *UnhealthyError
	if !errors.As(err, &ue) {
		t.Fatalf("dense faults produced a non-Unhealthy error (a bug): %v", err)
	}
}

func TestAblationVerticalJumps(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	g.DisableVJump = true
	faults := fault.NewSet(g.NumNodes())
	if _, err := g.ContainTorus(faults, ExtractOptions{}); err == nil {
		t.Error("without vertical jumps the extracted columns cannot close; expected failure")
	}
}

func TestAblationDiagonalJumps(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	g.DisableDJump = true
	faults := fault.NewSet(g.NumNodes())
	faults.Add(g.NodeIndex(100, 100)) // force at least one winding band
	if _, err := g.ContainTorus(faults, ExtractOptions{}); err == nil {
		t.Error("without diagonal jumps rows cannot cross bands; expected failure")
	}
}

func TestHealthNoFaults(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	h := g.CheckHealth(fault.NewSet(g.NumNodes()))
	if !h.Healthy() {
		t.Errorf("fault-free instance reported unhealthy: %+v", h)
	}
}

func TestHealthDenseFaults(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	faults := fault.NewSet(g.NumNodes())
	faults.Bernoulli(rng.New(11), 0.2)
	h := g.CheckHealth(faults)
	if h.Healthy() {
		t.Errorf("20%% faults reported healthy: %+v", h)
	}
}

func TestGraph3DRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("3D roundtrip is slow")
	}
	p := Params{D: 3, W: 4, Pitch: 16, Scale: 1}
	g := mustGraph(t, p)
	r := rng.New(5)
	faults := fault.NewSet(g.NumNodes())
	for i := 0; i < 5; i++ {
		faults.Add(r.Intn(g.NumNodes()))
	}
	roundtrip(t, g, faults)
}

func TestPlaceBandsMaskAllFaults(t *testing.T) {
	p := testParams2D()
	g := mustGraph(t, p)
	r := rng.New(17)
	for trial := 0; trial < 5; trial++ {
		faults := fault.NewSet(g.NumNodes())
		faults.Bernoulli(r.Split(uint64(trial)), 5e-5)
		bs, _, err := g.PlaceBands(faults)
		if err != nil {
			var ue *UnhealthyError
			if errors.As(err, &ue) {
				continue
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		var unmasked int
		faults.ForEach(func(idx int) {
			i, z := g.NodeOf(idx)
			if bs.MaskedBy(z, i) < 0 {
				unmasked++
			}
		})
		if unmasked > 0 {
			t.Errorf("trial %d: %d faults unmasked", trial, unmasked)
		}
	}
}

func TestCyclicHelpersAgree(t *testing.T) {
	// Guard the grid helpers the placer depends on.
	if lo, e := grid.CyclicCover([]int{9, 0, 1}, 10); lo != 9 || e != 3 {
		t.Errorf("CyclicCover wrap = (%d,%d), want (9,3)", lo, e)
	}
	if !grid.IntervalsIntersect(8, 3, 0, 2, 10) {
		t.Error("wrap intervals [8,11) and [0,2) should intersect")
	}
	if grid.IntervalsIntersect(2, 2, 5, 2, 10) {
		t.Error("disjoint intervals reported intersecting")
	}
}
