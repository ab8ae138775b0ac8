package churn

import (
	"math"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/parallel"
	"ftnet/internal/rng"
)

// Coupled repair-rate ladder: the availability-vs-repair-rate experiment
// (E17) evaluated the way sweep.SurvivalCurve evaluates survival-vs-rate
// curves — one event stream per trial serving every rung of the ladder,
// instead of one independent simulation per repair rate.
//
// The coupling is state-dependent uniformization over the ascending
// ladder rho_1 < ... < rho_m. Every rung shares the arrival process
// (per-healthy-node rate lambda) and thins a common repair-proposal
// clock: proposals fire at rate rho_m * |F_1| (the fastest rung's rate
// on the largest fault set), each picks a uniform member v of F_1 and a
// uniform threshold w, and rung r repairs v iff v is in F_r and
// w * rho_m < rho_r. Per-node repair rates come out exactly rho_r, so
// each rung's marginal law is precisely the independent birth-death
// process at (lambda, rho_r) — the coupling moves no probability, it
// only correlates the rungs (common random numbers, the same reduction
// sweep.SurvivalCurve gets from nested Bernoulli universes).
//
// Two structural invariants make the shared stream cheap:
//
//   - Nesting: F_1 >= F_2 >= ... >= F_m at all times. Arrivals add the
//     same node everywhere; the repair acceptance region is upward-closed
//     in r (ascending rhos), so a repair removes v from a suffix of the
//     rungs still holding it.
//   - Status sharing: nested sets with equal counts are equal, so one
//     placement probe (core.Graph.Tolerates — the pipeline's exact
//     health classification, see lifetimeTrial) serves every drained rung
//     whose fault set coincides with its neighbor's. Fast-repair rungs
//     spend most of the horizon sharing one near-empty set.
//
// Statuses are NOT monotone across rungs — a rung with strictly fewer
// faults can be down while a slower rung is up (the non-monotone
// tolerance counterexample of TestToleratesNotMonotone applies between
// nested sets too) — so each changed rung with a distinct set is probed
// individually; no threshold search over rungs is sound.
type LadderOptions struct {
	// Workers bounds the trial worker pool; 0 means GOMAXPROCS.
	Workers int
	// TargetCI, if positive, stops the run once every nonzero-mean
	// per-rung metric has this relative 95% precision.
	TargetCI float64
	// Horizon is the simulated time per trial (required, > 0).
	Horizon float64
	// Verify cross-checks every placement probe against a full
	// from-scratch pipeline run — the exhaustive ablation the golden
	// tests run; ruinously slow for real experiments.
	Verify bool
}

// LadderResult aggregates a coupled repair-ladder simulation. The
// outcome vector is rung-major: metric c of rung r is component
// r*NumMetrics + c of the embedded LifetimeReport.
type LadderResult struct {
	parallel.LifetimeReport
	// Rhos echoes the ladder.
	Rhos []float64
	// Horizon echoes the per-trial simulated time.
	Horizon float64
}

// Metric returns the mean and standard error of one metric at one rung.
func (lr LadderResult) Metric(rung, metric int) (float64, float64) {
	i := rung*NumMetrics + metric
	return lr.Mean[i], lr.StdErr[i]
}

// Availability returns rung's mean availability and standard error.
func (lr LadderResult) Availability(rung int) (float64, float64) {
	return lr.Metric(rung, MetricAvailability)
}

// DeathRate returns the fraction of trials in which rung ever lost the
// torus.
func (lr LadderResult) DeathRate(rung int) float64 {
	m, _ := lr.Metric(rung, MetricDied)
	return m
}

// ladderState is the per-worker scratch bundle for coupled ladder
// trials: one fault set and one life accumulator per rung, plus the
// shared placement scratch.
type ladderState struct {
	sc      *core.Scratch
	sets    []*fault.Set
	changed []bool
	lives   []life
}

// SimulateRepairLadder runs coupled lifetime trials of the birth-death
// fault process at per-node arrival rate lambda across the ascending
// repair-rate ladder rhos, and aggregates the per-rung metrics. Each
// rung's marginal statistics estimate exactly what an independent
// Simulate at (lambda, rho_r) estimates; one trial costs little more
// than its slowest rung. Determinism follows the repository contract:
// trial t draws only from its (seed, t) PCG stream and results are
// bit-identical for every worker count.
func SimulateRepairLadder(g *core.Graph, lambda float64, rhos []float64, trials int, seed uint64, opts LadderOptions) (LadderResult, error) {
	if opts.Horizon <= 0 {
		return LadderResult{}, fterr.New(fterr.Invalid, "churn.SimulateRepairLadder", "horizon %v <= 0", opts.Horizon)
	}
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return LadderResult{}, fterr.New(fterr.Invalid, "churn.SimulateRepairLadder", "arrival rate %v must be positive and finite", lambda)
	}
	if len(rhos) == 0 {
		return LadderResult{}, fterr.New(fterr.Invalid, "churn.SimulateRepairLadder", "empty repair-rate ladder")
	}
	for i, rho := range rhos {
		if rho < 0 || math.IsInf(rho, 0) || math.IsNaN(rho) {
			return LadderResult{}, fterr.New(fterr.Invalid, "churn.SimulateRepairLadder", "repair rate rhos[%d] = %v", i, rho)
		}
		if i > 0 && rho <= rhos[i-1] {
			return LadderResult{}, fterr.New(fterr.Invalid, "churn.SimulateRepairLadder", "ladder not strictly ascending at rhos[%d] = %v", i, rho)
		}
	}
	m := len(rhos)
	popts := parallel.Options{
		Workers:  opts.Workers,
		TargetCI: opts.TargetCI,
		NewScratch: func() any {
			ls := &ladderState{
				sc:      core.NewScratch(1),
				sets:    make([]*fault.Set, m),
				changed: make([]bool, m),
				lives:   make([]life, m),
			}
			for r := range ls.sets {
				ls.sets[r] = fault.NewSet(g.NumNodes())
			}
			return ls
		},
	}
	rep, err := parallel.RunLifetime(trials, m*NumMetrics, seed, popts, func(t int, stream *rng.PCG, scratch any, out []float64) error {
		return ladderTrial(g, scratch.(*ladderState), stream, lambda, rhos, opts.Horizon, opts.Verify, out)
	})
	if err != nil {
		return LadderResult{}, err
	}
	return LadderResult{LifetimeReport: rep, Rhos: rhos, Horizon: opts.Horizon}, nil
}

// maxProposals caps the uniformized clock ticks per trial (arrival
// proposals plus repair proposals, thinned no-ops included) as a runaway
// guard.
const maxProposals = 1 << 22

// ladderTrial steps one coupled trial from the all-healthy state to the
// horizon, maintaining every rung's fault set, status and metrics off
// the single uniformized proposal stream.
func ladderTrial(g *core.Graph, ls *ladderState, stream *rng.PCG, lambda float64, rhos []float64, horizon float64, verify bool, out []float64) error {
	m := len(rhos)
	n := g.NumNodes()
	rhoMax := rhos[m-1]
	for r := 0; r < m; r++ {
		ls.sets[r].Clear()
		ls.lives[r].reset(horizon)
	}

	arrivalMass := lambda * float64(n)
	now := 0.0
	for p := 0; ; p++ {
		if p >= maxProposals {
			return fterr.New(fterr.Conflict, "churn.ladderTrial", "trial exceeded %d proposals at t=%.3g of horizon %.3g; shorten the horizon", maxProposals, now, horizon)
		}
		// The dominating rate of the current state: every rung's total
		// rate is at most lambda*n + rho_m*|F_1|.
		total := arrivalMass + rhoMax*float64(ls.sets[0].Count())
		now += -math.Log(1-stream.Float64()) / total
		if now >= horizon {
			break
		}
		if u := stream.Float64() * total; u < arrivalMass {
			// Arrival proposal: the shared node fails in every rung where it
			// is healthy; rungs already holding it thin the proposal away
			// (that is what scales each rung's arrival rate by its own
			// healthy count).
			v := stream.Intn(n)
			for r := 0; r < m; r++ {
				if ls.changed[r] = !ls.sets[r].Has(v); ls.changed[r] {
					ls.sets[r].Add(v)
				}
			}
		} else {
			// Repair proposal on the largest set, thinned per rung by the
			// shared threshold: acceptance is upward-closed in r, so nesting
			// survives the removal.
			v := ls.sets[0].Nth(stream.Intn(ls.sets[0].Count()))
			w := stream.Float64() * rhoMax
			for r := 0; r < m; r++ {
				if ls.changed[r] = ls.sets[r].Has(v) && w < rhos[r]; ls.changed[r] {
					ls.sets[r].Remove(v)
				}
			}
		}

		// Refresh the status of every rung whose set changed. Nested sets
		// with equal counts are equal, so a probe (or an unchanged rung's
		// current status) is shared with every following rung at the same
		// count.
		prevCnt := -1
		prevUp := false
		for r := 0; r < m; r++ {
			cnt := ls.sets[r].Count()
			var upNow bool
			switch {
			case !ls.changed[r]:
				upNow = ls.lives[r].up
			case cnt == prevCnt:
				upNow = prevUp
			default:
				var err error
				upNow, err = evalClass(g.Tolerates(ls.sets[r], ls.sc))
				if err != nil {
					return err
				}
				if verify {
					_, err := g.ContainTorus(ls.sets[r], core.ExtractOptions{Scratch: ls.sc})
					full, err := evalClass(err)
					if err != nil {
						return err
					}
					if full != upNow {
						return fterr.New(fterr.Internal, "churn.ladder", "placement probe says up=%v but the full pipeline says up=%v on rung %d (%d faults)", upNow, full, r, cnt)
					}
				}
			}
			prevCnt, prevUp = cnt, upNow
			if ls.changed[r] {
				ls.lives[r].event(now, upNow, cnt)
			}
		}
	}
	for r := range ls.lives {
		ls.lives[r].write(horizon, out[r*NumMetrics:(r+1)*NumMetrics])
	}
	return nil
}
