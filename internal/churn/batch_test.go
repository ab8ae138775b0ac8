package churn

import (
	"testing"

	"ftnet/internal/core"
	"ftnet/internal/fault"
)

// Golden exactness suite for the batched evaluator: for any process,
// seed and window size, Simulate with Options.Batch must reproduce the
// per-event oracle bit for bit — death time, death rate, death size,
// availability (same floating-point accrual order), event counts. The
// regimes below are chosen so that windows cross the unhealthy boundary
// in both directions (the 422-poison steps of the serve path):
// clustered bursts kill the torus mid-window, repairs revive it, so the
// probe must classify both kinds of transition and the window Eval must
// defer past down states and commit again after a revival.

// assertBatchGolden compares the per-event oracle against batched runs
// at several window sizes on identical (proc, trials, seed, opts).
func assertBatchGolden(t *testing.T, g *core.Graph, proc Process, trials int, seed uint64, opts Options, batches []int, label string) Result {
	t.Helper()
	opts.Batch = 0
	want, err := Simulate(g, proc, trials, seed, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	for _, b := range batches {
		opts.Batch = b
		got, err := Simulate(g, proc, trials, seed, opts)
		if err != nil {
			t.Fatalf("%s: batch=%d: %v", label, b, err)
		}
		if got.Trials != want.Trials {
			t.Fatalf("%s: batch=%d ran %d trials, oracle %d", label, b, got.Trials, want.Trials)
		}
		for c := 0; c < NumMetrics; c++ {
			if got.Mean[c] != want.Mean[c] || got.StdErr[c] != want.StdErr[c] {
				t.Fatalf("%s: batch=%d metric %d = (%v, %v), oracle (%v, %v) — batched evaluation diverged",
					label, b, c, got.Mean[c], got.StdErr[c], want.Mean[c], want.StdErr[c])
			}
		}
	}
	return want
}

// TestBatchGoldenAging pins the death event on the pure-aging regime of
// E16: no repairs, every trial dies, StopAtDeath — the window that
// crosses into the first down state must stop at the oracle's exact
// death event, including the events-processed count the oracle stops
// at.
func TestBatchGoldenAging(t *testing.T) {
	g := testGraph(t)
	proc := Process{Arrival: 5e-4}
	died := 0.0
	for seed := uint64(0); seed < 20; seed++ {
		rep := assertBatchGolden(t, g, proc, 2, seed,
			Options{Horizon: 400, Workers: 1, StopAtDeath: true},
			[]int{2, 7, 64}, "aging")
		died += rep.DeathRate()
	}
	if died == 0 {
		t.Fatal("no trial died: no window crossed into a down state")
	}
}

// TestBatchGoldenMixed pins exactness on the full mixed process: node
// arrivals and repairs, link flaps and repairs, clustered node and edge
// bursts, deaths and revivals inside the horizon.
func TestBatchGoldenMixed(t *testing.T) {
	g := testGraph(t)
	proc := Process{
		Arrival:       1e-5,
		Repair:        0.8,
		BurstRate:     0.4,
		BurstSize:     18,
		BurstPattern:  fault.Cluster,
		EdgeArrival:   1e-5,
		EdgeRepair:    0.8,
		EdgeBurstRate: 0.2,
		EdgeBurstSize: 8,
	}
	died, avail := 0.0, 0.0
	for seed := uint64(0); seed < 20; seed++ {
		rep := assertBatchGolden(t, g, proc, 2, seed,
			Options{Horizon: 20, Workers: 1},
			[]int{2, 7, 64}, "mixed")
		died += rep.DeathRate()
		avail += rep.Mean[MetricAvailability]
	}
	if died == 0 {
		t.Fatal("no mixed trial died: raise the burst size so windows cross the unhealthy boundary")
	}
	if avail == 0 {
		t.Fatal("availability identically zero: the revival path was never exercised")
	}
}

// TestBatchGoldenMaxEvents pins the runaway-guard equivalence: the
// batched trial must abort with the oracle's exact error — same cap,
// same last event time — when the cap fires, and must NOT abort when
// StopAtDeath ends the trial inside the final window first.
func TestBatchGoldenMaxEvents(t *testing.T) {
	g := testGraph(t)
	proc := Process{Arrival: 5e-4, Repair: 0.5}
	opts := Options{Horizon: 400, Workers: 1, MaxEvents: 40}
	_, errOracle := Simulate(g, proc, 2, 3, opts)
	if errOracle == nil {
		t.Fatal("oracle did not hit MaxEvents; lower the cap")
	}
	opts.Batch = 16
	_, errBatch := Simulate(g, proc, 2, 3, opts)
	if errBatch == nil {
		t.Fatal("batched run did not hit MaxEvents")
	}
	if errOracle.Error() != errBatch.Error() {
		t.Fatalf("MaxEvents aborts diverged:\noracle:  %v\nbatched: %v", errOracle, errBatch)
	}

	// Aging with StopAtDeath: deaths land before the cap, so neither
	// evaluator may abort even though the batched window could absorb
	// past it.
	aging := Process{Arrival: 5e-4}
	aopts := Options{Horizon: 400, Workers: 1, MaxEvents: 300, StopAtDeath: true}
	want, err := Simulate(g, aging, 2, 3, aopts)
	if err != nil {
		t.Fatalf("oracle aborted under StopAtDeath: %v", err)
	}
	aopts.Batch = 512
	got, err := Simulate(g, aging, 2, 3, aopts)
	if err != nil {
		t.Fatalf("batched aborted under StopAtDeath: %v", err)
	}
	for c := 0; c < NumMetrics; c++ {
		if got.Mean[c] != want.Mean[c] {
			t.Fatalf("metric %d = %v, oracle %v", c, got.Mean[c], want.Mean[c])
		}
	}
}

// TestBatchGoldenWorkers pins determinism: batched results are
// bit-identical across worker counts, like every other engine.
func TestBatchGoldenWorkers(t *testing.T) {
	g := testGraph(t)
	proc := Process{Arrival: 3e-5, Repair: 0.4}
	var want Result
	for i, workers := range []int{1, 4} {
		rep, err := Simulate(g, proc, 10, 99, Options{Horizon: 40, Workers: workers, Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = rep
			continue
		}
		for c := 0; c < NumMetrics; c++ {
			if rep.Mean[c] != want.Mean[c] || rep.StdErr[c] != want.StdErr[c] {
				t.Fatalf("workers=%d: metric %d = (%v, %v), want (%v, %v)",
					workers, c, rep.Mean[c], rep.StdErr[c], want.Mean[c], want.StdErr[c])
			}
		}
	}
}

// TestBatchRejectsIndependent pins the config error: the from-scratch
// ablation resets the session before every event, so no window of
// notes survives for a batched Eval to absorb.
func TestBatchRejectsIndependent(t *testing.T) {
	g := testGraph(t)
	if _, err := Simulate(g, Process{Arrival: 1e-5}, 2, 1, Options{Horizon: 5, Batch: 8, Independent: true}); err == nil {
		t.Fatal("Batch with Independent must be rejected")
	}
}

// TestBatchGolden3D is the d=3 leg: mixed node+edge churn with
// clustered bursts on the 9.4M-node host, batched vs per-event, bit
// identical. Box footprints are 2-D column regions here, so this is
// also where the window's one-eval survival path pays off hardest.
func TestBatchGolden3D(t *testing.T) {
	if testing.Short() {
		t.Skip("9.4M-node instance")
	}
	g, err := core.NewGraph(core.Params{D: 3, W: 4, Pitch: 16, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	proc := Process{
		Arrival:      2e-7,
		Repair:       0.6,
		BurstRate:    0.8,
		BurstSize:    60,
		BurstPattern: fault.Cluster,
		EdgeArrival:  4e-8,
		EdgeRepair:   0.6,
	}
	events := 0.0
	for seed := uint64(0); seed < 20; seed++ {
		rep := assertBatchGolden(t, g, proc, 1, seed,
			Options{Horizon: 6, Workers: 1},
			[]int{4, 32}, "d3")
		events += rep.Mean[MetricEvents]
	}
	if events == 0 {
		t.Fatal("no events at d=3; raise the rates")
	}
}
