package churn

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// Absolute golden pins: the exact IEEE-754 bits of every reported
// statistic and the hash of the generator's event stream at fixed seeds.
// The relative goldens (batch_test.go, the determinism tests) compare
// two evaluators against each other; these fix the numbers themselves,
// so a change that moves both sides in lockstep — a reordered
// availability sum, a different draw sequence — fails here.

// goldenMixedProc exercises every event kind of the mixed process: node
// arrivals and repairs, clustered node bursts, link flaps and repairs,
// and clustered edge bursts, at rates where trials die and revive
// inside the horizon.
var goldenMixedProc = Process{
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

// reportBits flattens a report's Mean then StdErr vectors to their bits.
func reportBits(mean, stderr []float64) []uint64 {
	out := make([]uint64, 0, len(mean)+len(stderr))
	for _, v := range mean {
		out = append(out, math.Float64bits(v))
	}
	for _, v := range stderr {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// assertBits fails with both full vectors on any mismatch, so a
// deliberate re-pin can copy the new bits.
func assertBits(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: statistics moved; got bits\n%#x\nwant\n%#x", label, got, want)
	}
}

// simulateGolden is Simulate(goldenMixedProc, 6 trials, seed 6, horizon
// 5, one worker): Mean then StdErr, in Metric order.
var simulateGolden = []uint64{
	0x4008cc3a8d97369c, 0x3fe5555555555555, 0x402caaaaaaaaaaab, 0x3fe7e61f5555b16c,
	0x4048800000000000, 0x3fe9762b529a3876, 0x3fcafc19d860616a, 0x40176851ff2e43c7,
	0x3fc05f6b1744eb4c, 0x40141b3bf6cdd438,
}

// TestSimulateGolden pins the lifetime statistics of one mixed process
// and checks that every evaluation mode reports exactly them: per-event
// session steps, the batched probe, the from-scratch ablation, the dense
// pipeline, and the dense from-scratch ablation.
func TestSimulateGolden(t *testing.T) {
	g := testGraph(t)
	for _, tc := range []struct {
		label string
		opts  Options
	}{
		{"per-event", Options{}},
		{"batch=7", Options{Batch: 7}},
		{"independent", Options{Independent: true}},
		{"dense", Options{Dense: true}},
		{"independent+dense", Options{Independent: true, Dense: true}},
	} {
		opts := tc.opts
		opts.Workers, opts.Horizon = 1, 5
		rep, err := Simulate(g, goldenMixedProc, 6, 6, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if tc.label == "per-event" && (rep.DeathRate() == 0 || rep.DeathRate() == 1) {
			t.Fatalf("death rate %v: the pinned trials must both die and survive", rep.DeathRate())
		}
		assertBits(t, tc.label, reportBits(rep.Mean, rep.StdErr), simulateGolden)
	}
}

// ladderGolden is SimulateRepairLadder over rhos {0.05, 0.8, 12.8} at
// 40x the theorem arrival rate (6 trials, seed 7, horizon 3, one
// worker): Mean then StdErr, rung-major.
var ladderGolden = []uint64{
	0x3ff5f5238efc9b18, 0x3feaaaaaaaaaaaab, 0x4022000000000000, 0x3fdd46da13fb7975,
	0x403f2aaaaaaaaaab, 0x3ff8caa7707037ab, 0x3fe5555555555555, 0x4011555555555555,
	0x3fe6add1dac16f6b, 0x4046eaaaaaaaaaab, 0x4002f3c6fd5feca7, 0x3fd5555555555555,
	0x3fe5555555555555, 0x3fefd19ecbb1aa24, 0x404c400000000000, 0x3fdacf82ed3e082e,
	0x3fc5555555555554, 0x4005dc338d8781a3, 0x3fc1dfac9e295aca, 0x4007f2b62881bcdc,
	0x3fde89ab655ea992, 0x3fcafc19d860616a, 0x3ff852e0c8356983, 0x3fb94c2b83a7e27a,
	0x40116af137b464db, 0x3fdc655423dd3a99, 0x3fcafc19d860616a, 0x3fdafc19d860616a,
	0x3f6d6b97352c7487, 0x4014fb873e99fb1b,
}

// TestRepairLadderGolden pins one coupled 3-rung ladder.
func TestRepairLadderGolden(t *testing.T) {
	g := testGraph(t)
	res, err := SimulateRepairLadder(g, ladderLambda(t), []float64{0.05, 0.8, 12.8}, 6, 7,
		LadderOptions{Horizon: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "ladder", reportBits(res.Mean, res.StdErr), ladderGolden)
}

// eventStreamHash steps a fresh generator events times from the
// fault-free host and hashes every event: its time bits and all six
// delta lists.
func eventStreamHash(t *testing.T, proc Process, seed uint64, events int) uint64 {
	t.Helper()
	g := testGraph(t)
	gen, err := NewGeneratorHost(proc, g)
	if err != nil {
		t.Fatal(err)
	}
	ch := fault.NewCharger(g.NumNodes())
	r := rng.NewPCG(seed, 5)
	h := fnv.New64a()
	for step := 0; step < events; step++ {
		ev, err := gen.NextMixed(r, ch)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !proc.HasEdgeEvents() && (!slices.Equal(ev.Added, ev.EffAdded) || !slices.Equal(ev.Cleared, ev.EffCleared)) {
			t.Fatalf("step %d: node-only effective delta differs from the node delta", step)
		}
		fmt.Fprintf(h, "%x %v %v %v %v %v %v\n", math.Float64bits(ev.Time),
			ev.Added, ev.Cleared, ev.EdgeAdded, ev.EdgeCleared, ev.EffAdded, ev.EffCleared)
	}
	return h.Sum64()
}

// TestNextMixedGolden pins the first 300 events of a node-only and of a
// mixed process, so the generator's draw sequence cannot drift silently.
func TestNextMixedGolden(t *testing.T) {
	nodeOnly := Process{Arrival: 1e-4, Repair: 0.5, BurstRate: 0.2, BurstSize: 5, BurstPattern: fault.Cluster}
	for _, tc := range []struct {
		label string
		proc  Process
		want  uint64
	}{
		{"node-only", nodeOnly, 0xc41ed18d844a6ad4},
		{"mixed", goldenMixedProc, 0x8a6214e2d1e7625c},
	} {
		if got := eventStreamHash(t, tc.proc, 23, 300); got != tc.want {
			t.Errorf("%s: event stream hash %#016x, want %#016x", tc.label, got, tc.want)
		}
	}
}
