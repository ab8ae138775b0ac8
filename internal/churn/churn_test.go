package churn

import (
	"testing"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// testGraph is the small B^2 instance shared by the churn tests:
// n=192, m=256, 49k nodes.
func testGraph(t *testing.T) *core.Graph {
	t.Helper()
	g, err := core.NewGraph(core.Params{D: 2, W: 4, Pitch: 16, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGeneratorModel steps the Gillespie generator on a node-only
// process against a plain model: times strictly increase, every event's
// delta matches the fault set's actual transition, and the event mix
// covers arrivals, repairs and bursts.
func TestGeneratorModel(t *testing.T) {
	g := testGraph(t)
	gen, err := NewGeneratorHost(Process{
		Arrival:      1e-4,
		Repair:       0.5,
		BurstRate:    0.3,
		BurstSize:    6,
		BurstPattern: fault.Cluster,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	ch := fault.NewCharger(g.NumNodes())
	faults := ch.Nodes()
	r := rng.NewPCG(5, 1)
	model := map[int]bool{}
	last := 0.0
	arrivals, repairs, bursts := 0, 0, 0
	for step := 0; step < 400; step++ {
		ev, err := gen.NextMixed(r, ch)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Time <= last {
			t.Fatalf("step %d: time went %v -> %v", step, last, ev.Time)
		}
		last = ev.Time
		switch {
		case len(ev.Added) == 1 && len(ev.Cleared) == 0:
			arrivals++
		case len(ev.Cleared) == 1 && len(ev.Added) == 0:
			repairs++
		case len(ev.Added) > 1:
			bursts++
		default:
			// A burst whose pattern landed entirely on existing faults is
			// legal (empty delta); anything else is not.
			if len(ev.Cleared) != 0 {
				t.Fatalf("step %d: odd delta added=%v cleared=%v", step, ev.Added, ev.Cleared)
			}
		}
		for _, v := range ev.Added {
			if model[v] {
				t.Fatalf("step %d: node %v added but already faulty", step, v)
			}
			model[v] = true
		}
		for _, v := range ev.Cleared {
			if !model[v] {
				t.Fatalf("step %d: node %v cleared but was healthy", step, v)
			}
			delete(model, v)
		}
		if faults.Count() != len(model) {
			t.Fatalf("step %d: set has %d faults, model %d", step, faults.Count(), len(model))
		}
	}
	if arrivals == 0 || repairs == 0 || bursts == 0 {
		t.Fatalf("event mix did not cover all kinds: %d arrivals, %d repairs, %d bursts", arrivals, repairs, bursts)
	}
}

// TestProcessValidate pins the config errors.
func TestProcessValidate(t *testing.T) {
	g := testGraph(t)
	if _, err := NewGeneratorHost(Process{}, g); err == nil {
		t.Error("all-zero process must be rejected")
	}
	if _, err := NewGeneratorHost(Process{Arrival: -1}, g); err == nil {
		t.Error("negative rate must be rejected")
	}
	if _, err := Simulate(g, Process{Arrival: 1e-5}, 4, 1, Options{}); err == nil {
		t.Error("zero horizon must be rejected")
	}
}

// TestParallelDeterminismChurn pins two contracts at once: the lifetime
// simulation is bit-identical across worker counts, and the incremental
// session path reports exactly the same outcomes as the from-scratch
// per-event ablation (Options.Independent) — the lifetime-level face of
// the session's dense-equivalence guarantee.
func TestParallelDeterminismChurn(t *testing.T) {
	g := testGraph(t)
	proc := Process{Arrival: 3e-5, Repair: 0.4}
	opts := Options{Horizon: 40, Workers: 1}
	const trials = 10
	var want Result
	for i, workers := range []int{1, 4} {
		opts.Workers = workers
		rep, err := Simulate(g, proc, trials, 99, opts)
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
	if want.Mean[MetricEvents] == 0 {
		t.Fatal("no churn events in the horizon; raise the rates")
	}
	opts.Workers = 2
	opts.Independent = true
	indep, err := Simulate(g, proc, trials, 99, opts)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumMetrics; c++ {
		if indep.Mean[c] != want.Mean[c] {
			t.Fatalf("ablation metric %d = %v, session %v — incremental and from-scratch outcomes diverged",
				c, indep.Mean[c], want.Mean[c])
		}
	}
}

// TestSimulateRegimes sanity-checks the physics: with fast repair the
// torus stays available; with heavy arrivals and no repair every trial
// dies and records a positive death size.
func TestSimulateRegimes(t *testing.T) {
	g := testGraph(t)

	rep, err := Simulate(g, Process{Arrival: 2e-5, Repair: 2}, 8, 7, Options{Horizon: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if avail, _ := rep.Availability(); avail < 0.95 {
		t.Fatalf("fast-repair availability %v, want ~1", avail)
	}

	rep, err = Simulate(g, Process{Arrival: 5e-4}, 6, 11, Options{Horizon: 400, Workers: 2, StopAtDeath: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeathRate() != 1 {
		t.Fatalf("pure-aging death rate %v, want 1 (horizon too short?)", rep.DeathRate())
	}
	if rep.MeanDeathFaults() <= 0 {
		t.Fatal("death recorded without a fault count")
	}
	if dt, _ := rep.MeanDeathTime(); dt <= 0 || dt >= 400 {
		t.Fatalf("mean death time %v outside (0, horizon)", dt)
	}
}

// TestLifetimeBursts runs the adversarial-burst regime end to end: burst
// events must flow through the session like any other delta.
func TestLifetimeBursts(t *testing.T) {
	g := testGraph(t)
	proc := Process{
		Arrival:      1e-5,
		Repair:       1,
		BurstRate:    0.5,
		BurstSize:    4,
		BurstPattern: fault.Cluster,
	}
	rep, err := Simulate(g, proc, 6, 3, Options{Horizon: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mean[MetricEvents] == 0 {
		t.Fatal("no events")
	}
}
