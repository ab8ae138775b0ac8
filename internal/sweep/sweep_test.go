package sweep

import (
	"math"
	"testing"

	"ftnet/internal/core"
	"ftnet/internal/stats"
)

func testGraph(t *testing.T) *core.Graph {
	t.Helper()
	g, err := core.NewGraph(core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}) // n=192
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testRates(g *core.Graph) []float64 {
	pThm := g.P.TheoremFailureProb()
	mults := []float64{0.5, 1, 5, 20, 60, 150}
	out := make([]float64, len(mults))
	for i, m := range mults {
		out[i] = pThm * m
	}
	return out
}

// TestParallelDeterminismSweepCurve pins the engine's headline contract
// (the name keeps it inside CI's -race determinism sweep): the full
// coupled curve — per-rung counts, trial totals and stopping points —
// must be bit-identical for 1, 4 and 16 workers.
func TestParallelDeterminismSweepCurve(t *testing.T) {
	g := testGraph(t)
	rates := testRates(g)
	for _, cfg := range []Config{
		{},
		{TargetCI: 0.3},
	} {
		var ref Curve
		for i, workers := range []int{1, 4, 16} {
			c := cfg
			c.Workers = workers
			c.ShardSize = 1 // enough shards for 16 real workers at small trial counts
			curve, err := SurvivalCurve(g, rates, 48, 11, c)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = curve
				continue
			}
			for r := range curve.Rungs {
				if curve.Rungs[r] != ref.Rungs[r] {
					t.Fatalf("cfg=%+v workers=%d rung=%d: %+v, want %+v",
						cfg, workers, r, curve.Rungs[r], ref.Rungs[r])
				}
			}
		}
	}
}

// TestCurveMonotoneAndCalibrated sanity-checks the coupled estimator:
// under nested coupling each trial's survival is evaluated on growing
// fault sets, the measured curve must start near 1 at half the theorem
// probability and collapse by 150x, and the coupled and independent
// estimators must agree within joint confidence slack.
func TestCurveMonotoneAndCalibrated(t *testing.T) {
	g := testGraph(t)
	rates := testRates(g)
	coupled, err := SurvivalCurve(g, rates, 120, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := coupled.Rungs[0].Rate; got != rates[0] {
		t.Fatalf("rung 0 rate %g, want %g", got, rates[0])
	}
	if coupled.Rungs[0].Result.Rate < 0.95 {
		t.Fatalf("survival %.3f at 0.5x theorem probability", coupled.Rungs[0].Result.Rate)
	}
	last := coupled.Rungs[len(coupled.Rungs)-1].Result
	if last.Rate > 0.2 {
		t.Fatalf("survival %.3f at 150x theorem probability — no collapse", last.Rate)
	}
	independent, err := SurvivalCurve(g, rates, 120, 5, Config{Independent: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := range rates {
		c, ind := coupled.Rungs[r].Result, independent.Rungs[r].Result
		if c.Lo > ind.Hi+1e-9 || ind.Lo > c.Hi+1e-9 {
			t.Errorf("rung %d: coupled %s vs independent %s do not overlap", r, c, ind)
		}
	}
}

// TestProbesRateStableAcrossCallOrder pins the grid-aligned stake
// coupling: probing the same rate before or after other probes — or
// twice — must return bit-identical results.
func TestProbesRateStableAcrossCallOrder(t *testing.T) {
	g := testGraph(t)
	pThm := g.P.TheoremFailureProb()
	mk := func() *Probes {
		ps, err := NewProbes(g, 24, 9, pThm, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	probe := func(ps *Probes, p float64) (succ, trials int) {
		res, err := ps.Rate(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Successes, res.Trials
	}
	psA := mk()
	wantS, wantT := probe(psA, 30*pThm)
	psB := mk()
	probe(psB, 5*pThm)
	probe(psB, 120*pThm)
	gotS, gotT := probe(psB, 30*pThm)
	if gotS != wantS || gotT != wantT {
		t.Fatalf("probe at 30x depends on probe history: %d/%d vs %d/%d", gotS, gotT, wantS, wantT)
	}
	// Monotonicity of the coupled fault sets: higher rate can only lose
	// survivors on the same trial set.
	loS, _ := probe(psA, 10*pThm)
	hiS, _ := probe(psA, 200*pThm)
	if hiS > loS {
		t.Fatalf("coupled survival increased with rate: %d at 10x vs %d at 200x", loS, hiS)
	}
}

// TestProbesCountStable mirrors the rate test for fault-count probes.
func TestProbesCountStable(t *testing.T) {
	g := testGraph(t)
	ps, err := NewProbes(g, 16, 13, g.P.TheoremFailureProb(), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ps.Count(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Count(64); err != nil {
		t.Fatal(err)
	}
	again, err := ps.Count(8)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("count probe depends on history: %+v vs %+v", first, again)
	}
}

// TestCurveRejectsBadLadder pins input validation.
func TestCurveRejectsBadLadder(t *testing.T) {
	g := testGraph(t)
	if _, err := SurvivalCurve(g, nil, 10, 1, Config{}); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := SurvivalCurve(g, []float64{1e-3, 1e-4}, 10, 1, Config{}); err == nil {
		t.Error("descending ladder accepted")
	}
	if _, err := NewProbes(g, 0, 1, 1e-6, Config{}); err == nil {
		t.Error("zero trial budget accepted")
	}
	if _, err := NewProbes(g, 10, 1, 0, Config{}); err == nil {
		t.Error("zero grid base accepted")
	}
	ps, _ := NewProbes(g, 4, 1, 1e-6, Config{})
	if _, err := ps.Rate(1.5); err == nil {
		t.Error("out-of-range rate accepted")
	}
	if _, err := ps.Count(math.MaxInt32); err == nil {
		t.Error("out-of-range count accepted")
	}
}

// TestDenseMatchesSession pins the Dense ablation to the session engine:
// a worker's session built in dense mode runs the whole-host pipeline on
// every Eval, and every curve rung and probe must come out identical.
func TestDenseMatchesSession(t *testing.T) {
	g := testGraph(t)
	rates := testRates(g)
	for _, cfg := range []Config{{}, {Independent: true}} {
		cfg.Workers = 2
		want, err := SurvivalCurve(g, rates, 16, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Dense = true
		got, err := SurvivalCurve(g, rates, 16, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want.Rungs {
			if got.Rungs[r] != want.Rungs[r] {
				t.Fatalf("independent=%v rung %d: dense %+v, session %+v", cfg.Independent, r, got.Rungs[r], want.Rungs[r])
			}
		}
	}
	pThm := g.P.TheoremFailureProb()
	for _, indep := range []bool{false, true} {
		var res [2][2]stats.Result
		for i, dense := range []bool{false, true} {
			ps, err := NewProbes(g, 12, 5, pThm, Config{Workers: 2, Independent: indep, Dense: dense})
			if err != nil {
				t.Fatal(err)
			}
			if res[i][0], err = ps.Rate(30 * pThm); err != nil {
				t.Fatal(err)
			}
			if res[i][1], err = ps.Count(24); err != nil {
				t.Fatal(err)
			}
		}
		if res[0] != res[1] {
			t.Fatalf("independent=%v: dense probes %+v, session probes %+v", indep, res[1], res[0])
		}
	}
}
