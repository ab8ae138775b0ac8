package ftnet

// One benchmark per experiment table/figure: each exercises the code
// path that regenerates the corresponding result, so `go test -bench .` doubles as a performance
// regression suite for the whole reproduction.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ftnet/internal/baseline"
	"ftnet/internal/churn"
	"ftnet/internal/core"
	"ftnet/internal/expander"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/parallel"
	"ftnet/internal/parsim"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
	"ftnet/internal/supernode"
	"ftnet/internal/sweep"
	"ftnet/internal/viz"
	"ftnet/internal/worstcase"
)

func benchGraphB2(b *testing.B) *core.Graph {
	b.Helper()
	g, err := core.NewGraph(core.Params{D: 2, W: 6, Pitch: 18, Scale: 1}) // n=432
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchFaultsB2(b *testing.B, g *core.Graph, p float64, seed uint64) *fault.Set {
	b.Helper()
	f := fault.NewSet(g.NumNodes())
	f.Bernoulli(rng.New(seed), p)
	return f
}

// BenchmarkBuildB2 covers E1 (Theorem 2 resources): parameter fitting plus
// host construction.
func BenchmarkBuildB2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := core.FitParams(2, 1000, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewGraph(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceBandsB2 covers E2/E3 (Lemma 5): band placement around
// random faults at 10x the theorem probability.
func BenchmarkPlaceBandsB2(b *testing.B) {
	g := benchGraphB2(b)
	p := 10 * g.P.TheoremFailureProb()
	faults := benchFaultsB2(b, g, p, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.PlaceBands(faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractB2 covers E2 (Lemma 6): torus extraction given bands.
func BenchmarkExtractB2(b *testing.B) {
	g := benchGraphB2(b)
	faults := benchFaultsB2(b, g, 10*g.P.TheoremFailureProb(), 7)
	bands, _, err := g.PlaceBands(faults)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Extract(bands, core.ExtractOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurvivalTrialB2 covers E2 end to end: one full Monte-Carlo
// trial (inject, place, extract, verify).
func BenchmarkSurvivalTrialB2(b *testing.B) {
	g := benchGraphB2(b)
	p := g.P.TheoremFailureProb()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faults := benchFaultsB2(b, g, p, uint64(i))
		if _, err := g.ContainTorus(faults, core.ExtractOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurvivalTrialScratchB2 is BenchmarkSurvivalTrialB2 with the
// per-worker scratch the parallel engine uses. With a scratch the trial
// is Reset + Eval on the delta engine (copy-on-write bands, trust-region
// extraction, footprint verification, all diffed against the
// all-defaults template), so per-trial cost tracks the fault footprint
// instead of the host size; compare against
// BenchmarkSurvivalTrialScratchDenseB2 for the same buffers on the dense
// whole-host path.
func BenchmarkSurvivalTrialScratchB2(b *testing.B) {
	g := benchGraphB2(b)
	p := g.P.TheoremFailureProb()
	sc := core.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faults := sc.Faults(g.NumNodes())
		faults.Bernoulli(rng.New(uint64(i)), p)
		if _, err := g.ContainTorus(faults, core.ExtractOptions{Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurvivalTrialScratchDenseB2 pins the legacy dense pipeline
// (ExtractOptions.Dense) under the same scratch: the gap to
// BenchmarkSurvivalTrialScratchB2 is the locality win alone.
func BenchmarkSurvivalTrialScratchDenseB2(b *testing.B) {
	g := benchGraphB2(b)
	p := g.P.TheoremFailureProb()
	sc := core.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faults := sc.Faults(g.NumNodes())
		faults.Bernoulli(rng.New(uint64(i)), p)
		if _, err := g.ContainTorus(faults, core.ExtractOptions{Dense: true, Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurvivalParallel runs the E2 survival workload on the
// deterministic parallel engine, scaling the worker pool from 1 to
// NumCPU. Trials/op throughput should rise near-linearly with workers
// up to the physical core count; the workers=1 case doubles as the
// engine-overhead baseline against BenchmarkSurvivalTrialScratchB2.
func BenchmarkSurvivalParallel(b *testing.B) {
	g := benchGraphB2(b)
	p := g.P.TheoremFailureProb()
	trial := func(t int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
		sc := scratch.(*core.Scratch)
		faults := sc.Faults(g.NumNodes())
		faults.Bernoulli(stream, p)
		if _, err := g.ContainTorus(faults, core.ExtractOptions{Scratch: sc}); err != nil {
			return stats.Failure, err
		}
		return stats.Success, nil
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			_, err := parallel.Run(b.N, 12345, parallel.Options{
				Workers:    workers,
				NewScratch: func() any { return core.NewScratch() },
			}, trial)
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// e2Ladder is the 9-rung E2 rate ladder on the n=432 host.
func e2Ladder(g *core.Graph) []float64 {
	pThm := g.P.TheoremFailureProb()
	mults := []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250}
	rates := make([]float64, len(mults))
	for i, m := range mults {
		rates[i] = pThm * m
	}
	return rates
}

// BenchmarkSurvivalSweepB2 covers the coupled curve engine on the full
// E2 workload: one op is one trial walking the entire 9-rung ladder
// under nested coupling, with rung-to-rung reuse of placement,
// extraction and verification state (core.Session). Compare against
// BenchmarkSurvivalSweepIndependentB2 — the same 9 rungs evaluated on
// independent per-rung samples, today's one-cell-per-rate behavior — for
// the coupling win alone.
func BenchmarkSurvivalSweepB2(b *testing.B) {
	g := benchGraphB2(b)
	rates := e2Ladder(g)
	b.ResetTimer()
	if _, err := sweep.SurvivalCurve(g, rates, b.N, 12345, sweep.Config{Workers: 1}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSurvivalSweepIndependentB2 is the ablation baseline: the same
// ladder, trial count and streams, but every rung re-samples and runs the
// pipeline cold.
func BenchmarkSurvivalSweepIndependentB2(b *testing.B) {
	g := benchGraphB2(b)
	rates := e2Ladder(g)
	b.ResetTimer()
	if _, err := sweep.SurvivalCurve(g, rates, b.N, 12345, sweep.Config{Workers: 1, Independent: true}); err != nil {
		b.Fatal(err)
	}
}

// churnSteadyState prepares a steady-state churn benchmark on the B2
// host: a node-only generator whose stationary faulty fraction sits at
// stationary, plus a warm session holding an equilibrium fault set drawn
// at that rate.
func churnSteadyState(b *testing.B, g *core.Graph, stationary float64) (*churn.Generator, *core.Scratch, *core.Session, *rng.PCG, *fault.Charger) {
	b.Helper()
	rho := 1.0
	gen, err := churn.NewGeneratorHost(churn.Process{Arrival: stationary * rho / (1 - stationary), Repair: rho}, g)
	if err != nil {
		b.Fatal(err)
	}
	sc := core.NewScratch()
	ses := g.NewSession(sc, core.ExtractOptions{})
	stream := rng.NewPCG(4242, 1)
	ch := fault.NewCharger(g.NumNodes())
	ses.NoteAdded(chargeNodes(ch, fault.NewSet(g.NumNodes()).BernoulliRecord(stream, stationary, nil)))
	if _, err := ses.Eval(ch.Effective()); err != nil {
		b.Fatal(err) // seed chosen healthy; a failure here is a bug
	}
	return gen, sc, ses, stream, ch
}

// chargeNodes marks nodes faulty in ch and returns the effective-set
// additions, for core.Session.NoteAdded.
func chargeNodes(ch *fault.Charger, nodes []int) []int {
	var eff []int
	for _, v := range nodes {
		if _, e := ch.AddNode(v); e >= 0 {
			eff = append(eff, e)
		}
	}
	return eff
}

// benchChurnEval counts an unhealthy state as a normal outcome (it is
// one, under churn) and anything else as a benchmark failure.
func benchChurnEval(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		var ue *core.UnhealthyError
		if !errors.As(err, &ue) {
			b.Fatal(err)
		}
	}
}

// benchSessionSteps times b.N churn events, each evaluated
// incrementally by the warm session.
func benchSessionSteps(b *testing.B, gen *churn.Generator, ses *core.Session, stream *rng.PCG, ch *fault.Charger) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := gen.NextMixed(stream, ch)
		if err != nil {
			b.Fatal(err)
		}
		ses.NoteAdded(ev.EffAdded)
		ses.NoteCleared(ev.EffCleared)
		_, err = ses.Eval(ch.Effective())
		benchChurnEval(b, err)
	}
}

// benchScratchSteps times b.N churn events, each evaluated by a
// from-scratch pipeline run on sc (dense: the whole-host pipeline).
func benchScratchSteps(b *testing.B, g *core.Graph, gen *churn.Generator, sc *core.Scratch, stream *rng.PCG, ch *fault.Charger, dense bool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.NextMixed(stream, ch); err != nil {
			b.Fatal(err)
		}
		_, err := g.ContainTorus(ch.Effective(), core.ExtractOptions{Scratch: sc, Dense: dense})
		benchChurnEval(b, err)
	}
}

// BenchmarkChurnSession is the dynamic-workload headline: one op is one
// churn event — a single fault arrival or repair at the steady state of
// the theorem rate — evaluated incrementally by the core.Session
// delta-evaluation engine. Compare against BenchmarkChurnSessionFromScratch
// (same event stream, from-scratch pipeline per event) and the
// BenchmarkSurvivalTrial* family (one from-scratch trial) for the
// incremental win; against the from-scratch BenchmarkSurvivalTrialB2
// the step runs ~40x faster (BENCH_pr4.json).
func BenchmarkChurnSession(b *testing.B) {
	g := benchGraphB2(b)
	gen, _, ses, stream, ch := churnSteadyState(b, g, g.P.TheoremFailureProb())
	benchSessionSteps(b, gen, ses, stream, ch)
}

// BenchmarkChurnSessionHeavy is the same step at a 10x-theorem standing
// population (~56 faults, ~40 boxes): the incremental step still pays
// only the toggled box's footprint, while every from-scratch evaluation
// pays all of them — this is where the delta engine's O(event footprint)
// vs O(standing footprint) separation shows.
func BenchmarkChurnSessionHeavy(b *testing.B) {
	g := benchGraphB2(b)
	gen, _, ses, stream, ch := churnSteadyState(b, g, 10*g.P.TheoremFailureProb())
	benchSessionSteps(b, gen, ses, stream, ch)
}

// BenchmarkChurnSessionFromScratch is the ablation baseline: the exact
// same steady-state event stream, but every event pays a from-scratch
// pipeline run (the strongest static baseline — scratch buffers and the
// footprint-local evaluation from the template included). The gap to BenchmarkChurnSession is
// the delta-evaluation win alone.
func BenchmarkChurnSessionFromScratch(b *testing.B) {
	g := benchGraphB2(b)
	gen, sc, _, stream, ch := churnSteadyState(b, g, g.P.TheoremFailureProb())
	benchScratchSteps(b, g, gen, sc, stream, ch, false)
}

// BenchmarkChurnSessionFromScratchHeavy is the from-scratch ablation at
// the 10x standing population of BenchmarkChurnSessionHeavy.
func BenchmarkChurnSessionFromScratchHeavy(b *testing.B) {
	g := benchGraphB2(b)
	gen, sc, _, stream, ch := churnSteadyState(b, g, 10*g.P.TheoremFailureProb())
	benchScratchSteps(b, g, gen, sc, stream, ch, false)
}

// edgeChurnSteadyState prepares a steady-state *mixed* node+edge churn
// benchmark on the B2 host: a host-backed generator with comparable
// node-fault and link-flap rates, stepped to stationarity so the
// charger holds an equilibrium mixed population, plus a warm session
// that has evaluated its effective (charged) set.
func edgeChurnSteadyState(b *testing.B, g *core.Graph, scale float64) (*churn.Generator, *core.Scratch, *core.Session, *rng.PCG, *fault.Charger) {
	b.Helper()
	rho := 1.0
	// Split the target standing population evenly between node faults
	// and edge charges: stationary fraction s on each side gives
	// arrival = s*rho/(1-s) per healthy node (resp. edge, scaled by the
	// node/edge count ratio so the *counts* match).
	s := scale * g.P.TheoremFailureProb() / 2
	edgeRatio := float64(g.NumNodes()) / float64(g.NumNodes()*g.Degree()/2)
	gen, err := churn.NewGeneratorHost(churn.Process{
		Arrival:     s * rho / (1 - s),
		Repair:      rho,
		EdgeArrival: s * edgeRatio * rho / (1 - s*edgeRatio),
		EdgeRepair:  rho,
	}, g)
	if err != nil {
		b.Fatal(err)
	}
	sc := core.NewScratch()
	ses := g.NewSession(sc, core.ExtractOptions{})
	stream := rng.NewPCG(4242, 3)
	ch := fault.NewCharger(g.NumNodes())
	// ~8 relaxation times of warmup events reach the stationary mix.
	for {
		ev, err := gen.NextMixed(stream, ch)
		if err != nil {
			b.Fatal(err)
		}
		if ev.Time >= 8/rho {
			break
		}
	}
	ses.NoteAdded(ch.Effective().Slice())
	_, err = ses.Eval(ch.Effective())
	benchChurnEval(b, err)
	return gen, sc, ses, stream, ch
}

// BenchmarkEdgeChurnSession is the PR-8 headline: one op is one mixed
// churn event — a node arrival/repair or a link flap/repair at a
// steady-state mixed population — evaluated incrementally through the
// charging pass and the core.Session delta engine. Compare against
// BenchmarkEdgeChurnFromScratchDense (dense re-evaluation of the same
// charged set, the baseline the golden-equivalence tests pin the step
// against) for the BENCH_pr8.json acceptance ratio, and against
// BenchmarkEdgeChurnFromScratch (footprint-local, from the template) for
// the strongest static baseline.
func BenchmarkEdgeChurnSession(b *testing.B) {
	g := benchGraphB2(b)
	gen, _, ses, stream, ch := edgeChurnSteadyState(b, g, 10)
	benchSessionSteps(b, gen, ses, stream, ch)
}

// BenchmarkEdgeChurnFromScratch re-runs the exact same mixed event
// stream with a sparse from-scratch pipeline per event (scratch reuse
// and footprint-local evaluation from the template included).
func BenchmarkEdgeChurnFromScratch(b *testing.B) {
	g := benchGraphB2(b)
	gen, sc, _, stream, ch := edgeChurnSteadyState(b, g, 10)
	benchScratchSteps(b, g, gen, sc, stream, ch, false)
}

// BenchmarkEdgeChurnFromScratchDense is the dense from-scratch ablation:
// every event pays a full dense re-evaluation of the charged fault set —
// the reference the incremental step is proven bit-identical to.
func BenchmarkEdgeChurnFromScratchDense(b *testing.B) {
	g := benchGraphB2(b)
	gen, sc, _, stream, ch := edgeChurnSteadyState(b, g, 10)
	benchScratchSteps(b, g, gen, sc, stream, ch, true)
}

// BenchmarkLifetime covers the E16/E17 workload: one op is one full
// lifetime trial — fault-free start, ~60 churn events to the horizon,
// every event re-embedded and verified through the session engine.
func BenchmarkLifetime(b *testing.B) {
	g := benchGraphB2(b)
	pThm := g.P.TheoremFailureProb()
	_, err := churn.Simulate(g, churn.Process{Arrival: pThm, Repair: 1}, b.N, 7, churn.Options{
		Workers: 1,
		Horizon: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchBurstyProc is the burst-heavy mixed churn process of the PR 9
// batched-evaluation acceptance: adversarial node bursts (uniform, as
// no BurstPattern is set) plus clustered link-flap bursts dominate the
// event stream, with unit-rate repair churning each burst back out.
// Per-event evaluation pays a full
// session step for every one of those events; the batched evaluator
// pays the placement probe per event and one full pipeline step per
// window.
// The rates keep the host up ~85% of the time (bursts are mostly
// tolerated and heal fast), which is the expensive regime for the
// per-event evaluator: successful evaluations pay extraction and
// verification on every single event.
func benchBurstyProc(g *core.Graph) churn.Process {
	return churn.Process{
		Arrival:       g.P.TheoremFailureProb() / 8,
		Repair:        2,
		BurstRate:     2,
		BurstSize:     12,
		EdgeArrival:   g.P.TheoremFailureProb() / 16,
		EdgeRepair:    2,
		EdgeBurstRate: 1,
		EdgeBurstSize: 8,
	}
}

// BenchmarkLifetimeBursty is the per-event baseline on the burst-heavy
// mixed process: one op is one full lifetime trial, every event paying
// a session evaluation.
func BenchmarkLifetimeBursty(b *testing.B) {
	g := benchGraphB2(b)
	_, err := churn.Simulate(g, benchBurstyProc(g), b.N, 7, churn.Options{
		Workers: 1,
		Horizon: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLifetimeBurstyBatched is the same trials with Batch: 32 —
// per-event status from the placement probe, one full pipeline step per
// 32-event window. Results are bit-identical to BenchmarkLifetimeBursty
// (the golden suite in internal/churn pins it); only the cost moves.
// The BENCH_pr9.json acceptance wants >= 3x on this pair.
func BenchmarkLifetimeBurstyBatched(b *testing.B) {
	g := benchGraphB2(b)
	_, err := churn.Simulate(g, benchBurstyProc(g), b.N, 7, churn.Options{
		Workers: 1,
		Horizon: 6,
		Batch:   32,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLifetimeBatched is BenchmarkLifetime (steady-state churn,
// no bursts) with Batch: 16, pinning that batching also pays off — less
// dramatically — when events arrive one at a time.
func BenchmarkLifetimeBatched(b *testing.B) {
	g := benchGraphB2(b)
	pThm := g.P.TheoremFailureProb()
	_, err := churn.Simulate(g, churn.Process{Arrival: pThm, Repair: 1}, b.N, 7, churn.Options{
		Workers: 1,
		Horizon: 5,
		Batch:   16,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchGraphChurn is the experiments' churn host (E16/E17): smaller than
// the B2 bench host because every event re-enters the pipeline.
func benchGraphChurn(b *testing.B) *core.Graph {
	b.Helper()
	g, err := core.NewGraph(core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}) // n=192
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchLadderRhos is the E17 repair-rate ladder.
var benchLadderRhos = []float64{0.05, 0.2, 0.8, 3.2, 12.8}

// BenchmarkRepairLadderCoupled covers the E17 workload on the coupled
// ladder: one op is one trial serving ALL five repair-rate rungs off a
// single uniformized event stream (shared arrivals, thinned repairs,
// probe sharing across rungs at equal fault counts).
func BenchmarkRepairLadderCoupled(b *testing.B) {
	g := benchGraphChurn(b)
	lambda := 40 * g.P.TheoremFailureProb()
	_, err := churn.SimulateRepairLadder(g, lambda, benchLadderRhos, b.N, 7, churn.LadderOptions{
		Workers: 1,
		Horizon: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRepairLadderIndependent is the ablation E17 ran before the
// coupled ladder: one independent batched simulation per rung, each on
// its own event stream. One op is one full-ladder outcome (all five
// rungs), so the ratio to BenchmarkRepairLadderCoupled is the coupling
// win at equal statistical output.
func BenchmarkRepairLadderIndependent(b *testing.B) {
	g := benchGraphChurn(b)
	lambda := 40 * g.P.TheoremFailureProb()
	for r, rho := range benchLadderRhos {
		_, err := churn.Simulate(g, churn.Process{Arrival: lambda, Repair: rho}, b.N, 7+uint64(r), churn.Options{
			Workers: 1,
			Horizon: 6,
			Batch:   16,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchB3 caches the 3-dimensional churn host (9.4M nodes) across the
// d=3 benchmarks; building it costs seconds and must not be re-paid per
// benchmark function.
var benchB3 struct {
	once sync.Once
	g    *core.Graph
	err  error
}

func benchGraphB3(b *testing.B) *core.Graph {
	b.Helper()
	benchB3.once.Do(func() {
		benchB3.g, benchB3.err = core.NewGraph(core.Params{D: 3, W: 4, Pitch: 16, Scale: 1}) // n=192, 9.4M host nodes
	})
	if benchB3.err != nil {
		b.Fatal(benchB3.err)
	}
	return benchB3.g
}

// BenchmarkChurnSession3D is the d=3 churn step: one op is one fault
// arrival or repair on the 9.4M-node host, evaluated incrementally.
// Compare against BenchmarkChurnSession for the dimension scaling of
// the O(footprint) step.
func BenchmarkChurnSession3D(b *testing.B) {
	g := benchGraphB3(b)
	gen, _, ses, stream, ch := churnSteadyState(b, g, g.P.TheoremFailureProb())
	benchSessionSteps(b, gen, ses, stream, ch)
}

// BenchmarkLifetimeBursty3DBatched runs one burst-heavy batched
// lifetime trial per op on the d=3 host — the scale target of the PR 9
// churn extension (the golden suite pins bit-identity to per-event at
// this exact configuration). Run with -benchtime=1x or 2x; a trial
// simulates thousands of events.
func BenchmarkLifetimeBursty3DBatched(b *testing.B) {
	g := benchGraphB3(b)
	pThm := g.P.TheoremFailureProb()
	_, err := churn.Simulate(g, churn.Process{
		Arrival:     pThm / 2,
		Repair:      0.6,
		BurstRate:   0.8,
		BurstSize:   60,
		EdgeArrival: pThm / 8,
		EdgeRepair:  0.6,
	}, b.N, 7, churn.Options{
		Workers: 1,
		Horizon: 6,
		Batch:   32,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChurnSessionRearmed is BenchmarkChurnSession on the rotated
// regime: the session's very first evaluation carries an anchor-rotating
// fault, so its first commit re-derives the whole map, and the rotating
// fault stays pinned through the churn. Steady-state steps here must
// land within ~2x of the unrotated BenchmarkChurnSession (the
// BENCH_pr9.json acceptance): a rotation is an ordinary commit, not a
// fall back to the dense whole-host pipeline.
func BenchmarkChurnSessionRearmed(b *testing.B) {
	g := benchGraphB2(b)
	rot := g.FindAnchorRotatingFault()
	if rot < 0 {
		b.Skip("no single-node anchor-rotating fault on the bench host")
	}
	stationary := g.P.TheoremFailureProb()
	gen, err := churn.NewGeneratorHost(churn.Process{Arrival: stationary / (1 - stationary), Repair: 1}, g)
	if err != nil {
		b.Fatal(err)
	}
	sc := core.NewScratch()
	ses := g.NewSession(sc, core.ExtractOptions{})
	stream := rng.NewPCG(4242, 1)
	ch := fault.NewCharger(g.NumNodes())
	// Cold evaluation WITH the rotating fault: the cliff scenario.
	ses.NoteAdded(chargeNodes(ch, []int{rot}))
	if _, err := ses.Eval(ch.Effective()); err != nil {
		b.Fatal(err)
	}
	// Standing population on top of the rotated state.
	ses.NoteAdded(chargeNodes(ch, fault.NewSet(g.NumNodes()).BernoulliRecord(stream, stationary, nil)))
	if _, err := ses.Eval(ch.Effective()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := gen.NextMixed(stream, ch)
		if err != nil {
			b.Fatal(err)
		}
		ses.NoteAdded(ev.EffAdded)
		ses.NoteCleared(ev.EffCleared)
		// Keep the rotation pinned: if the event repaired the rotating
		// fault, re-add it in the same step.
		ses.NoteAdded(chargeNodes(ch, []int{rot}))
		_, err = ses.Eval(ch.Effective())
		benchChurnEval(b, err)
	}
}

// BenchmarkHealthCheckB2 covers E3 (Lemma 4 diagnostics).
func BenchmarkHealthCheckB2(b *testing.B) {
	g := benchGraphB2(b)
	faults := benchFaultsB2(b, g, 50*g.P.TheoremFailureProb(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CheckHealth(faults)
	}
}

// BenchmarkPlaceBandsB3 covers the d=3 rows of E1: placement on the
// 3-dimensional host.
func BenchmarkPlaceBandsB3(b *testing.B) {
	g, err := core.NewGraph(core.Params{D: 3, W: 4, Pitch: 16, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.NewSet(g.NumNodes())
	r := rng.New(5)
	for i := 0; i < 8; i++ {
		faults.Add(r.Intn(g.NumNodes()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.PlaceBands(faults); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGraphA2(b *testing.B, q float64, h int) *supernode.Graph {
	b.Helper()
	g, err := supernode.NewGraph(supernode.Params{
		Base: core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}, K: 2, H: h, Q: q})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkEmbedA2 covers E4/E5 (Theorem 1): the full supernode pipeline
// at p = 0.1.
func BenchmarkEmbedA2(b *testing.B) {
	g := benchGraphA2(b, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := g.NewFaultState(uint64(i), 0.1, rng.New(uint64(i)))
		if _, _, err := g.Embed(fs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoodNodesA2 covers the half-edge goodness scan of E5/E6 with
// q > 0 (the oracle-heavy path).
func BenchmarkGoodNodesA2(b *testing.B) {
	g := benchGraphA2(b, 1e-6, 16)
	fs := g.NewFaultState(9, 0.1, rng.New(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Embed(fs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterEmbed covers the FKP-style baseline side of E6.
func BenchmarkClusterEmbed(b *testing.B) {
	ct, err := baseline.NewClusterTorus(2, 384, 10)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.NewSet(ct.NumNodes())
	faults.Bernoulli(rng.New(3), 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ct.Embed(faults, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGraphD2(b *testing.B) *worstcase.Graph {
	b.Helper()
	g, err := worstcase.NewGraph(worstcase.Params{D: 2, N: 200, K: 64})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkMaskD2 covers E7/E9 (Theorem 13): the pigeonhole cascade at
// full adversarial budget.
func BenchmarkMaskD2(b *testing.B) {
	g := benchGraphD2(b)
	faults, err := fault.Adversarial(fault.ClassSpread, g.Shape, g.P.Capacity(), g.P.B()+1, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Mask(faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTolerateD2 covers E7 end to end including extraction and
// verification.
func BenchmarkTolerateD2(b *testing.B) {
	g := benchGraphD2(b)
	faults, err := fault.Adversarial(fault.Cluster, g.Shape, g.P.Capacity(), g.P.B()+1, rng.New(13))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Tolerate(faults, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaskD3 covers E8 (general-d cascade).
func BenchmarkMaskD3(b *testing.B) {
	g, err := worstcase.NewGraph(worstcase.Params{D: 3, N: 16, K: 4})
	if err != nil {
		b.Fatal(err)
	}
	faults, err := fault.Adversarial(fault.Uniform, g.Shape, g.P.Capacity(), g.P.B()+1, rng.New(17))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Mask(faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpareGridRecover covers the comparator side of E9.
func BenchmarkSpareGridRecover(b *testing.B) {
	sg, err := baseline.NewSpareGrid(200, 50, 3)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.NewSet(sg.NumNodes())
	for i := 0; i < 40; i++ {
		faults.Add((5*i)*sg.Side() + 4*i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sg.Recover(faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPosaPath covers E11 (Alon-Chung baseline): long-path search on
// the expander with 25% deletions.
func BenchmarkPosaPath(b *testing.B) {
	g, err := expander.NewGabberGalil(20)
	if err != nil {
		b.Fatal(err)
	}
	dead := fault.NewSet(g.N)
	if err := dead.ExactRandom(rng.New(3), g.N/4); err != nil {
		b.Fatal(err)
	}
	alive := func(v int) bool { return !dead.Has(v) }
	target := g.N / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := g.LongestPath(alive, target, rng.New(uint64(i)), 400_000)
		if len(path) < target {
			b.Fatal("path search fell short")
		}
	}
}

// BenchmarkSpectralGap covers E11's expansion certificate.
func BenchmarkSpectralGap(b *testing.B) {
	g, err := expander.NewGabberGalil(23)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l := g.SecondEigenvalue(100, rng.New(uint64(i))); l >= 1 {
			b.Fatal("no gap")
		}
	}
}

// BenchmarkRenderFigure covers E12 (Figures 1-2).
func BenchmarkRenderFigure(b *testing.B) {
	g, err := core.NewGraph(core.Params{D: 2, W: 4, Pitch: 16, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.NewSet(g.NumNodes())
	faults.Add(g.NodeIndex(44, 40))
	res, err := g.ContainTorus(faults, core.ExtractOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := viz.Bands(g, res.Bands, faults, 30, 20, 28, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStencil covers the application check of examples/stencil: one
// Jacobi step per processor on the extracted machine's logical torus.
func BenchmarkStencil(b *testing.B) {
	m := parsimIdeal(b, 432)
	field := make([]float64, m.P())
	field[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Stencil(field, 1, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCannon covers the matrix-multiply workload on the logical torus.
func BenchmarkCannon(b *testing.B) {
	m := parsimIdeal(b, 64)
	n := 64
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i % 7)
		bb[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Cannon(a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

func parsimIdeal(b *testing.B, side int) *parsim.Machine {
	b.Helper()
	return parsim.NewIdeal(grid.Shape{side, side})
}

// BenchmarkFacadeExtract covers the public API path used by downstream
// code (quickstart example).
func BenchmarkFacadeExtract(b *testing.B) {
	host, err := NewRandomFaultTorus(2, 400, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	faults := host.InjectRandom(42, host.TheoremFailureProb())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := host.Extract(faults); err != nil {
			b.Fatal(err)
		}
	}
}
