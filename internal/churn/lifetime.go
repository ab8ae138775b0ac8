package churn

import (
	"errors"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/parallel"
	"ftnet/internal/rng"
)

// Metric indexes the components of a lifetime trial's outcome vector
// (parallel.RunLifetime). The engine's relative early stopping resolves
// every nonzero-mean component, so a degenerate metric (death time
// pinned at the horizon in a no-death regime) cannot stop the run on
// its own.
const (
	// MetricDeathTime is the time of the first unembeddable state, or
	// the horizon if the torus survived the whole trial.
	MetricDeathTime = iota
	// MetricDied is 1 if the trial ever lost the torus, else 0.
	MetricDied
	// MetricDeathFaults is the fault count at first death (node plus
	// edge faults for mixed populations; 0 if none).
	MetricDeathFaults
	// MetricAvailability is the fraction of [0, horizon] during which a
	// verified embedding existed.
	MetricAvailability
	// MetricEvents is the number of churn events processed.
	MetricEvents
	// NumMetrics is the outcome vector length.
	NumMetrics
)

// Options tunes a lifetime simulation.
type Options struct {
	// Workers bounds the trial worker pool; 0 means GOMAXPROCS.
	Workers int
	// TargetCI, if positive, stops the run once every nonzero-mean
	// metric has this relative 95% precision (see parallel.RunLifetime).
	TargetCI float64
	// Horizon is the simulated time per trial (required, > 0).
	Horizon float64
	// MaxEvents caps the churn events per trial as a runaway guard;
	// 0 means 1<<20. A trial that would exceed the cap before reaching
	// the horizon aborts the run with an error instead of reporting
	// statistics over unsimulated time.
	MaxEvents int
	// Batch, when >= 2, decides each event's status with the
	// placement-only probe (core.Graph.Tolerates — the oracle's exact
	// health classification, see lifetimeTrial) and runs the full
	// pipeline once per window of Batch events on an up state, where the
	// session's bidirectional add/clear absorbs the window's mutations in
	// one warm incremental step. Every reported metric — death time,
	// death size, availability, event counts — is bit-identical to the
	// per-event evaluator; only the cost moves. 0 or 1 keeps the
	// per-event oracle. Incompatible with Independent, whose per-event
	// Reset leaves no window of notes to absorb.
	Batch int
	// StopAtDeath ends each trial at its first unembeddable state
	// instead of simulating to the horizon. Death time, death size and
	// death rate are unaffected; availability then counts the remaining
	// time as down, which is exact for irreversible regimes (no repair,
	// faults only accumulate) and conservative otherwise. The
	// mean-faults-to-death experiments use it to skip simulating dead
	// machines.
	StopAtDeath bool
	// Independent is the from-scratch ablation: the session is Reset
	// before every event's Check, so each state is evaluated against
	// commit zero (the all-defaults template) instead of the previous
	// event's commit. Outcomes are bit-identical either way — the
	// session's equivalence contract — so the flag only moves cost.
	Independent bool
	// Dense builds each worker's session in dense mode: every Check runs
	// the whole-host pipeline, the engine's oracle. It is read once,
	// when a worker's session is built.
	Dense bool
}

// Result aggregates a lifetime simulation.
type Result struct {
	parallel.LifetimeReport
	// Horizon echoes the per-trial simulated time.
	Horizon float64
}

// MeanDeathTime returns the mean time to first loss of the torus
// (censored at the horizon) and its standard error.
func (r Result) MeanDeathTime() (float64, float64) {
	return r.Mean[MetricDeathTime], r.StdErr[MetricDeathTime]
}

// DeathRate returns the fraction of trials that ever lost the torus.
func (r Result) DeathRate() float64 { return r.Mean[MetricDied] }

// Availability returns the mean fraction of time a verified embedding
// existed, and its standard error.
func (r Result) Availability() (float64, float64) {
	return r.Mean[MetricAvailability], r.StdErr[MetricAvailability]
}

// MeanDeathFaults returns the mean fault count at first death, over the
// trials that died (0 when none did).
func (r Result) MeanDeathFaults() float64 {
	if r.Mean[MetricDied] == 0 {
		return 0
	}
	return r.Mean[MetricDeathFaults] / r.Mean[MetricDied]
}

// trialState is the per-worker scratch bundle for lifetime trials.
type trialState struct {
	sc  *core.Scratch
	ses *core.Session
	gen *Generator
	ch  *fault.Charger
}

// Simulate runs lifetime trials of the churn process on g's Theorem 2
// host and aggregates them. Each trial starts from the fault-free host,
// steps the process to opts.Horizon, and decides every event's status
// through one core.Session per worker (see lifetimeTrial). Determinism
// follows the repository contract: trial t draws only from its (seed, t)
// PCG stream and results are bit-identical for every worker count.
func Simulate(g *core.Graph, proc Process, trials int, seed uint64, opts Options) (Result, error) {
	if opts.Horizon <= 0 {
		return Result{}, fterr.New(fterr.Invalid, "churn.Simulate", "horizon %v <= 0", opts.Horizon)
	}
	if err := proc.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Batch > 1 && opts.Independent {
		return Result{}, fterr.New(fterr.Invalid, "churn.Simulate", "Batch=%d requires the incremental session; Independent evaluates from scratch per event", opts.Batch)
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 1 << 20
	}
	popts := parallel.Options{
		Workers:  opts.Workers,
		TargetCI: opts.TargetCI,
		NewScratch: func() any {
			sc := core.NewScratch(1)
			gen, err := NewGeneratorHost(proc, g)
			if err != nil {
				// Validate above makes this unreachable; keep the trial
				// path total anyway.
				panic(err)
			}
			return &trialState{
				sc:  sc,
				ses: g.NewSession(sc, core.ExtractOptions{Dense: opts.Dense}),
				gen: gen,
				ch:  fault.NewCharger(g.NumNodes()),
			}
		},
	}
	rep, err := parallel.RunLifetime(trials, NumMetrics, seed, popts, func(t int, stream *rng.PCG, scratch any, out []float64) error {
		return lifetimeTrial(g, scratch.(*trialState), stream, opts, out)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{LifetimeReport: rep, Horizon: opts.Horizon}, nil
}

// lifetimeTrial steps one trial from the fault-free host to the horizon.
// The mixed node+edge process mutates a fault.Charger, and every status
// is decided on the *effective* (charged) node set. Only the source of
// an event's status depends on the options:
//
//   - per event (the oracle): one session Check on the event's deltas;
//   - Independent: the same Check after a session Reset, so each event is
//     evaluated from commit zero instead of from the previous event;
//   - Batch >= 2: the placement probe core.Graph.Tolerates, plus one warm
//     session Check per window of Batch events.
//
// Check is the full pipeline — placement, extraction, verification and
// commit — without the embedding map, which no status reads.
//
// Why a probe instead of bisecting a window for its death event:
// bisection leans on embeddability being antitone in the fault set, and
// it is not. Condition 2 can reject a fault set and accept a superset,
// because an added fault can merge two boxes that each needed their own
// band segment in a shared slab into one box needing a single segment
// (TestToleratesNotMonotone pins a three/four-fault counterexample, and
// unrepaired Gillespie streams cross such states), so no window-end
// evaluation says anything about its unevaluated prefixes. What is
// sound: every unhealthy classification the pipeline makes is decided by
// the placement stages alone — extraction and verification fail only on
// bug-class invariant violations — so the probe is the oracle's exact
// status at a fraction of its cost. The window Check keeps the session's
// committed state bounded and cross-checks the probe: a state the probe
// accepts and the pipeline rejects is an internal error.
//
// Every mode draws the same events in the same order and feeds the same
// statuses to one life accumulator, so every reported metric is
// bit-identical across modes by construction (TestSimulateGolden and the
// goldens in batch_test.go pin it); only the cost moves.
func lifetimeTrial(g *core.Graph, ts *trialState, stream *rng.PCG, opts Options, out []float64) error {
	ts.gen.Reset()
	ts.ses.Reset()
	ts.ch.Reset()
	var l life
	l.reset(opts.Horizon)
	pending := 0 // batched: events since the last committed session Check
	for {
		if l.events >= opts.MaxEvents {
			// Refusing to report is better than silently crediting the
			// unsimulated tail of the horizon as up-time.
			return fterr.New(fterr.Conflict, "churn.lifetimeTrial", "trial exceeded MaxEvents=%d at t=%.3g of horizon %.3g; raise Options.MaxEvents or shorten the horizon", opts.MaxEvents, l.last, opts.Horizon)
		}
		ev, err := ts.gen.NextMixed(stream, ts.ch)
		if err != nil {
			return err
		}
		if ev.Time >= opts.Horizon {
			// The event lands beyond the trial: the pre-event state
			// persists to the horizon. (The fault set was already
			// mutated, but nothing reads it after this point.)
			break
		}
		if opts.Independent {
			ts.ses.Reset()
		} else {
			// Batched windows evaluate only at their boundaries, but the
			// note contract — every mutation since the last successful
			// step — must hold at each of them, so every event reports.
			ts.ses.NoteAdded(ev.EffAdded)
			ts.ses.NoteCleared(ev.EffCleared)
		}
		eff := ts.ch.Effective()
		var upNow bool
		if opts.Batch > 1 {
			pending++
			upNow, err = evalClass(g.Tolerates(eff, ts.sc))
			if err == nil && upNow && pending >= opts.Batch {
				// Window boundary on a tolerated state. A down state defers
				// the boundary: failed Evals do not commit, and the notes
				// keep accumulating.
				if err = ts.ses.Check(eff); errors.As(err, new(*core.UnhealthyError)) {
					return fterr.New(fterr.Internal, "churn.batch", "placement probe accepted a state the full pipeline rejects: %v", err)
				}
				pending = 0
			}
		} else {
			upNow, err = evalClass(ts.ses.Check(eff))
		}
		if err != nil {
			return err
		}
		l.event(ev.Time, upNow, ts.ch.Nodes().Count()+ts.ch.Edges().Count())
		if l.died && opts.StopAtDeath {
			break
		}
	}
	l.write(opts.Horizon, out)
	return nil
}

// evalClass folds a pipeline outcome into up/down, passing bug-class
// errors through.
func evalClass(err error) (bool, error) {
	if err == nil {
		return true, nil
	}
	var ue *core.UnhealthyError
	if errors.As(err, &ue) {
		return false, nil
	}
	return false, err
}

// life accumulates one trial's lifetime metrics from its sequence of
// state changes. lifetimeTrial keeps one; the coupled ladder keeps one
// per rung.
type life struct {
	up          bool // the current state contains the torus
	died        bool
	deathTime   float64
	deathFaults int
	upTime      float64
	last        float64 // time of the last state change
	events      int
}

// reset starts a trial on the fault-free host, which trivially contains
// the torus.
func (l *life) reset(horizon float64) {
	*l = life{up: true, deathTime: horizon}
}

// event records a state change at time t into a state with status upNow
// holding faults faults. The previous state lasted since the last
// change; the first down state latches the death.
func (l *life) event(t float64, upNow bool, faults int) {
	if l.up {
		l.upTime += t - l.last
	}
	l.last = t
	l.events++
	if l.up && !upNow && !l.died {
		l.died = true
		l.deathTime = t
		l.deathFaults = faults
	}
	l.up = upNow
}

// write closes the trial at the horizon and writes its NumMetrics
// outcomes into out, which the engine hands over zeroed.
func (l *life) write(horizon float64, out []float64) {
	if l.up {
		l.upTime += horizon - l.last
	}
	out[MetricDeathTime] = l.deathTime
	if l.died {
		out[MetricDied] = 1
		out[MetricDeathFaults] = float64(l.deathFaults)
	}
	out[MetricAvailability] = l.upTime / horizon
	out[MetricEvents] = float64(l.events)
}
