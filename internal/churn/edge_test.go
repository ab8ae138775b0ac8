package churn

import (
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// TestGeneratorMixedModel steps the mixed node+edge Gillespie generator
// against a plain model: times strictly increase, every delta matches
// the charger's actual transition, the effective set always equals the
// batch charging pass of the current sets, and the event mix covers all
// six kinds.
func TestGeneratorMixedModel(t *testing.T) {
	g := testGraph(t)
	gen, err := NewGeneratorHost(Process{
		Arrival:       5e-5,
		Repair:        0.3,
		BurstRate:     0.15,
		BurstSize:     4,
		BurstPattern:  fault.Cluster,
		EdgeArrival:   2e-5,
		EdgeRepair:    0.3,
		EdgeBurstRate: 0.15,
		EdgeBurstSize: 5,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	ch := fault.NewCharger(g.NumNodes())
	r := rng.NewPCG(17, 3)
	nodeModel := map[int]bool{}
	edgeModel := map[fault.Edge]bool{}
	last := 0.0
	var nodeAdds, nodeReps, edgeAdds, edgeReps, edgeBursts int
	for step := 0; step < 600; step++ {
		ev, err := gen.NextMixed(r, ch)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Time <= last {
			t.Fatalf("step %d: time went %v -> %v", step, last, ev.Time)
		}
		last = ev.Time
		switch {
		case len(ev.Added) == 1:
			nodeAdds++
		case len(ev.Cleared) == 1:
			nodeReps++
		case len(ev.EdgeAdded) == 1:
			edgeAdds++
		case len(ev.EdgeCleared) == 1:
			edgeReps++
		case len(ev.EdgeAdded) > 1:
			edgeBursts++
		}
		for _, v := range ev.Added {
			if nodeModel[v] {
				t.Fatalf("step %d: node %d added but already faulty", step, v)
			}
			nodeModel[v] = true
		}
		for _, v := range ev.Cleared {
			if !nodeModel[v] {
				t.Fatalf("step %d: node %d cleared but was healthy", step, v)
			}
			delete(nodeModel, v)
		}
		for _, e := range ev.EdgeAdded {
			if e.U >= e.V || !g.Adjacent(e.U, e.V) {
				t.Fatalf("step %d: event edge %v not a canonical host edge", step, e)
			}
			if edgeModel[e] {
				t.Fatalf("step %d: edge %v added but already faulty", step, e)
			}
			edgeModel[e] = true
		}
		for _, e := range ev.EdgeCleared {
			if !edgeModel[e] {
				t.Fatalf("step %d: edge %v cleared but was healthy", step, e)
			}
			delete(edgeModel, e)
		}
		if ch.Nodes().Count() != len(nodeModel) || ch.Edges().Count() != len(edgeModel) {
			t.Fatalf("step %d: charger has %d nodes/%d edges, model %d/%d",
				step, ch.Nodes().Count(), ch.Edges().Count(), len(nodeModel), len(edgeModel))
		}
		// The incrementally maintained effective set must equal the batch
		// charging pass of the current sets, at every step.
		want := fault.ChargeEdges(ch.Nodes(), ch.Edges().Slice()).Slice()
		got := ch.Effective().Slice()
		if len(got) != len(want) {
			t.Fatalf("step %d: effective set has %d entries, batch charge %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: effective set diverged from batch charge at %d", step, i)
			}
		}
	}
	if nodeAdds == 0 || nodeReps == 0 || edgeAdds == 0 || edgeReps == 0 || edgeBursts == 0 {
		t.Fatalf("event mix incomplete: %d node adds, %d node repairs, %d edge adds, %d edge repairs, %d edge bursts",
			nodeAdds, nodeReps, edgeAdds, edgeReps, edgeBursts)
	}
}

// TestGeneratorEdgeRatesNeedHost pins the config error for a negative
// edge rate.
func TestGeneratorEdgeRatesNeedHost(t *testing.T) {
	g := testGraph(t)
	if _, err := NewGeneratorHost(Process{EdgeArrival: -1}, g); err == nil {
		t.Fatal("negative edge rate must be rejected")
	}
}

// TestParallelDeterminismChurnMixed extends the lifetime determinism and
// ablation-equivalence contract to mixed node+edge populations: results
// bit-identical across worker counts, and the incremental session path
// identical to from-scratch evaluation of the charged fault set.
func TestParallelDeterminismChurnMixed(t *testing.T) {
	g := testGraph(t)
	proc := Process{
		Arrival:       2e-5,
		Repair:        0.4,
		EdgeArrival:   1e-5,
		EdgeRepair:    0.4,
		EdgeBurstRate: 0.05,
		EdgeBurstSize: 4,
	}
	opts := Options{Horizon: 30, Workers: 1}
	const trials = 8
	var want Result
	for i, workers := range []int{1, 4} {
		opts.Workers = workers
		rep, err := Simulate(g, proc, trials, 41, opts)
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
	indep, err := Simulate(g, proc, trials, 41, opts)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumMetrics; c++ {
		if indep.Mean[c] != want.Mean[c] {
			t.Fatalf("ablation metric %d = %v, session %v — incremental and from-scratch outcomes diverged on a mixed population",
				c, indep.Mean[c], want.Mean[c])
		}
	}
}
