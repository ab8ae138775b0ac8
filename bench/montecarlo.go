package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"ftnet/internal/churn"
	"ftnet/internal/core"
	"ftnet/internal/rng"
	"ftnet/internal/sweep"
)

// mcSpec is the Monte-Carlo workload's host and block sizes.
type mcSpec struct {
	params      core.Params
	curveTrials int // trials per coupled-curve block
	lifeTrials  int // trials per lifetime block
	shortRounds int // timed rounds per phase in a short run
}

// mcD2 runs on the B2 bench host Params{2, 6, 18, 1} (279,936 nodes, a
// 432×432 guest). A round is one block of each kind, about 90 ms: blocks
// small enough that a run holds about a hundred rounds, big enough that
// the engines' per-call set-up stays a few percent.
var mcD2 = mcSpec{params: core.Params{D: 2, W: 6, Pitch: 18, Scale: 1}, curveTrials: 8, lifeTrials: 3}

// mcShort is the self-test's tiny host (n=192, 49,152 nodes).
var mcShort = mcSpec{params: core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}, curveTrials: 2, lifeTrials: 1, shortRounds: 2}

// e2Rates is the 9-rung E2 rate ladder, in multiples of the theorem rate.
var e2Rates = []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250}

// burstyProc is the burst-heavy mixed process of
// BenchmarkLifetimeBurstyBatched.
func burstyProc(g *core.Graph) churn.Process {
	p := g.P.TheoremFailureProb()
	return churn.Process{
		Arrival: p / 8, Repair: 2, BurstRate: 2, BurstSize: 12,
		EdgeArrival: p / 16, EdgeRepair: 2, EdgeBurstRate: 1, EdgeBurstSize: 8,
	}
}

// lifetimeOpts is BenchmarkLifetimeBurstyBatched's: horizon 6, windows
// of 32 events; batch 0 is the per-event oracle.
func lifetimeOpts(batch int) churn.Options {
	return churn.Options{Workers: 1, Horizon: 6, Batch: batch}
}

func runMonteCarlo(cfg runConfig) (*outcome, error) {
	sp := mcD2
	if cfg.short {
		sp = mcShort
	}
	out := newOutcome("round")
	var g *core.Graph
	for i := 0; i < cfg.builds; i++ {
		g = nil
		runtime.GC()
		start := time.Now()
		var err error
		if g, err = core.NewGraph(sp.params); err != nil {
			return nil, err
		}
		// The first trial builds the host's verified template.
		sc := core.NewScratch(1)
		if _, err := g.ContainTorus(sc.Faults(g.NumNodes()), core.ExtractOptions{Scratch: sc}); err != nil {
			return nil, fmt.Errorf("cold trial: %w", err)
		}
		out.setup = append(out.setup, time.Since(start))
	}
	pThm := g.P.TheoremFailureProb()
	rates := make([]float64, len(e2Rates))
	for i, m := range e2Rates {
		rates[i] = m * pThm
	}
	proc := burstyProc(g)
	out.inputs["host"] = sp.params.String()
	out.inputs["curve"] = fmt.Sprintf("%d trials x %d rungs %v x pThm", sp.curveTrials, len(rates), e2Rates)
	out.inputs["lifetime"] = fmt.Sprintf("%d trials of %+v, %+v", sp.lifeTrials, proc, lifetimeOpts(32))
	out.inputs["block_seeds"] = fmt.Sprintf("rng.Hash64(%d, block index)", cfg.seed)

	var shadowSc *core.Scratch
	if cfg.trace {
		out.tr = newTracer()
		shadowSc = core.NewScratch(1)
	}
	ph := newPhases(cfg, sp.shortRounds, out.tr)
	tr := out.tr
	var rejected, curveTrials, lifeTrials int
	for r := 0; ; r++ {
		seedA, seedB := rng.Hash64(cfg.seed, uint64(2*r)), rng.Hash64(cfg.seed, uint64(2*r+1))
		traced := false
		if r > 0 {
			var ok bool
			if traced, ok = ph.advance(); !ok {
				break
			}
		}
		out.attempted += 2
		var (
			curve      sweep.Curve
			life       churn.Result
			cErr, lErr error
		)
		ev := int64(r)
		if traced {
			root, start := tr.id(), time.Now()
			tr.child(root, ev, "sweep.curve", func(int64) {
				curve, cErr = sweep.SurvivalCurve(g, rates, sp.curveTrials, seedA, sweep.Config{Workers: 1})
			})
			tr.child(root, ev, "churn.simulate", func(int64) { life, lErr = churn.Simulate(g, proc, sp.lifeTrials, seedB, lifetimeOpts(32)) })
			tr.record(root, 0, ev, out.opRoot, start, time.Now())
		} else {
			start := time.Now()
			curve, cErr = sweep.SurvivalCurve(g, rates, sp.curveTrials, seedA, sweep.Config{Workers: 1})
			life, lErr = churn.Simulate(g, proc, sp.lifeTrials, seedB, lifetimeOpts(32))
			if r > 0 {
				out.ops = append(out.ops, time.Since(start))
			}
		}
		if err := errors.Join(cErr, lErr); err != nil {
			out.failed++
			fmt.Fprintf(cfg.log, "bench: round %d: %v\n", r, err)
			continue
		}
		if r == 0 {
			// Every process of a run computes the same first round; its
			// digest ties the later processes to the one process 0 checks.
			out.digests["round0_results"] = fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%+v %+v", curve, life)))
		}
		if r == 0 && !cfg.repeat {
			// The first block of each kind against its oracle: the dense
			// pipeline for the curve, per-event evaluation for the lifetimes.
			dense, err := sweep.SurvivalCurve(g, rates, sp.curveTrials, seedA, sweep.Config{Workers: 1, Dense: true})
			if err != nil || !reflect.DeepEqual(dense, curve) {
				out.fail(fmt.Sprintf("block 0: coupled curve differs from the dense pipeline (%v)", err))
			}
			perEvent, err := churn.Simulate(g, proc, sp.lifeTrials, seedB, lifetimeOpts(0))
			if err != nil || !reflect.DeepEqual(perEvent, life) {
				out.fail(fmt.Sprintf("block 1: batched lifetimes differ from per-event evaluation (%v)", err))
			}
		}
		if !traced {
			continue
		}
		curveTrials += sp.curveTrials
		lifeTrials += sp.lifeTrials
		for _, rung := range curve.Rungs {
			rejected += rung.Trials - rung.Successes
		}
		start := time.Now()
		if err := shadowTrials(tr, ev, g, shadowSc, pThm, seedA, sp.curveTrials); err != nil {
			out.fail(fmt.Sprintf("round %d: %v", r, err))
		}
		ph.pause(time.Since(start))
	}
	ph.end()
	out.measured = ph.measured
	out.noteLive()
	runtime.KeepAlive(g)
	if cfg.trace {
		out.layer["core.rejected"] = float64(rejected)
		a := tr.analyze()
		if busy := a.busy("sweep.curve"); busy > 0 {
			out.layer["sweep.curve.trials_per_s"] = float64(curveTrials) / busy.Seconds()
		}
		if busy := a.busy("churn.simulate"); busy > 0 {
			out.layer["churn.simulate.trials_per_s"] = float64(lifeTrials) / busy.Seconds()
		}
	}
	return out, nil
}

// shadowTrials times the core layer the blocks hide: n cold trials at
// the theorem rate on the same host, each the placement probe plus the
// scratch-backed pipeline the Monte-Carlo engines run per trial.
func shadowTrials(tr *tracer, ev int64, g *core.Graph, sc *core.Scratch, p float64, seed uint64, n int) error {
	stream := rng.NewPCG(seed, traceStream)
	for t := 0; t < n; t++ {
		faults := sc.Faults(g.NumNodes())
		faults.Bernoulli(stream, p)
		root, start := tr.id(), time.Now()
		var probeErr, err error
		tr.child(root, ev, "core.place_probe", func(int64) { probeErr = g.Tolerates(faults, sc) })
		tr.child(root, ev, "core.eval", func(int64) { _, err = g.ContainTorus(faults, core.ExtractOptions{Scratch: sc}) })
		tr.record(root, 0, ev, rootShadow, start, time.Now())
		var ue *core.UnhealthyError
		if err != nil && !errors.As(err, &ue) {
			return fmt.Errorf("shadow trial: %w", err)
		}
		if (probeErr == nil) != (err == nil) {
			return fmt.Errorf("placement probe (%v) disagrees with the pipeline (%v)", probeErr, err)
		}
	}
	return nil
}
