// Package sweep evaluates whole survival curves — survival probability
// vs fault rate — with coupled Monte-Carlo trials instead of one
// independent run per point.
//
// A single trial walks an entire ascending rate ladder p_1 < ... < p_k
// under nested common-random-numbers coupling: fault.Set.Extend grows
// F(p_1) ⊆ F(p_2) ⊆ ... ⊆ F(p_k) with exact Bernoulli marginals, and a
// core.Session re-enters the Theorem 2 pipeline at each rung with the
// previous rung's copy-on-write bands, row vectors and certification
// intact, paying only for the columns whose band values changed. The
// ladder therefore costs little more than its most expensive rung, where
// independent per-rate evaluation pays every rung in full. Every rung and
// probe steps with Session.Check: a trial only asks whether the fault
// set is tolerated, so the embedding map is never built.
//
// Execution rides on internal/parallel's shard-ordered deterministic
// commit (RunLadder): per-rung Wilson early stopping and the aggregated
// curve are bit-identical for every worker count, and rungs whose
// interval is already tight are skipped by later trials — safe because
// every rung's evaluation is bit-exact regardless of which earlier rungs
// ran (the sweep equivalence tests in internal/core pin this).
//
// The Probes type extends the same coupling to threshold searches (the
// 50%-crossing bisection of experiment A4, the fault-count doubling of
// E10): every probe re-evaluates the same per-trial coupled fault
// universes, so the measured rate is monotone-stable across probes
// instead of resampling noise into every bisection decision.
package sweep

import (
	"fmt"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/parallel"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// Config tunes a sweep run.
type Config struct {
	// Workers bounds the trial worker pool; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is passed through to the parallel engine.
	ShardSize int
	// TargetCI, if positive, stops each rung once its 95% Wilson interval
	// is narrower than this width.
	TargetCI float64
	// Independent disables the nested coupling: every rung of every trial
	// draws a fresh Bernoulli fault set and evaluates it from scratch (a
	// session Reset before its Check). This is the ablation baseline the
	// coupled engine is benchmarked against.
	Independent bool
	// Dense builds each worker's session in dense mode, so every rung and
	// probe runs the whole-host pipeline. It is read once, when a
	// worker's session is built (newCurveScratch).
	Dense bool
}

// Rung is one point of a measured survival curve.
type Rung struct {
	Rate float64
	stats.Result
	EarlyStopped bool
}

// Curve is a measured survival curve.
type Curve struct {
	Rungs     []Rung
	Requested int
	Workers   int
}

// curveScratch is the per-worker state bundle for curve trials and
// probes: one scratch and the session that evaluates on it.
type curveScratch struct {
	sc    *core.Scratch
	ses   *core.Session
	added []int
}

// newCurveScratch builds one worker's state. It is the only reader of
// cfg.Dense: a dense session runs the whole-host pipeline on every Check.
func newCurveScratch(g *core.Graph, cfg Config) *curveScratch {
	sc := core.NewScratch()
	return &curveScratch{sc: sc, ses: g.NewSession(sc, core.ExtractOptions{Dense: cfg.Dense})}
}

// evalFresh classifies faults evaluated from scratch: a session Reset,
// so the step diffs against commit zero (the all-defaults template)
// rather than the worker's previous state, then the Check.
func (cs *curveScratch) evalFresh(faults *fault.Set) (stats.Outcome, error) {
	cs.ses.Reset()
	return stats.Classify(cs.ses.Check(faults))
}

// SurvivalCurve measures survival of g's Theorem 2 pipeline at every rate
// of the ascending ladder, sharing trials across all rungs. With
// cfg.Independent it instead evaluates each rung on its own fresh sample
// (same engine, same streams), which reproduces the legacy one-cell-per-
// rate behavior for ablation.
func SurvivalCurve(g *core.Graph, rates []float64, trials int, seed uint64, cfg Config) (Curve, error) {
	if len(rates) == 0 {
		return Curve{}, fmt.Errorf("sweep: empty rate ladder")
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] < rates[i-1] {
			return Curve{}, fmt.Errorf("sweep: rate ladder not ascending at rung %d (%g < %g)", i, rates[i], rates[i-1])
		}
	}
	opts := parallel.Options{
		Workers:    cfg.Workers,
		ShardSize:  cfg.ShardSize,
		TargetCI:   cfg.TargetCI,
		NewScratch: func() any { return newCurveScratch(g, cfg) },
	}
	var fn parallel.LadderTrial
	if cfg.Independent {
		fn = func(t int, stream *rng.PCG, scratch any, stopped []bool, out []stats.Outcome) error {
			cs := scratch.(*curveScratch)
			for r, rate := range rates {
				faults := cs.sc.Faults(g.NumNodes())
				faults.Bernoulli(stream, rate)
				if stopped[r] {
					continue
				}
				var err error
				if out[r], err = cs.evalFresh(faults); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		fn = func(t int, stream *rng.PCG, scratch any, stopped []bool, out []stats.Outcome) error {
			cs := scratch.(*curveScratch)
			cs.ses.Reset()
			faults := cs.sc.Faults(g.NumNodes())
			prev := 0.0
			for r, rate := range rates {
				var err error
				// Sampling always advances, evaluated rung or not, so every
				// rung's fault set — and hence its outcome — is independent
				// of which rungs the engine skipped.
				cs.added, err = faults.Extend(stream, prev, rate, cs.added[:0])
				if err != nil {
					return err
				}
				cs.ses.NoteAdded(cs.added)
				prev = rate
				if stopped[r] {
					continue
				}
				if out[r], err = stats.Classify(cs.ses.Check(faults)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	rep, err := parallel.RunLadder(trials, len(rates), seed, opts, fn)
	if err != nil {
		return Curve{}, err
	}
	curve := Curve{Requested: rep.Requested, Workers: rep.Workers, Rungs: make([]Rung, len(rates))}
	for r, rate := range rates {
		curve.Rungs[r] = Rung{Rate: rate, Result: rep.Rungs[r].Result, EarlyStopped: rep.Rungs[r].EarlyStopped}
	}
	return curve, nil
}
