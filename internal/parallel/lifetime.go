package parallel

import (
	"fmt"
	"math"

	"ftnet/internal/rng"
)

// LifetimeTrial runs one Monte-Carlo trial with a vector-valued outcome,
// writing one real metric per component into out (len(out) == dims).
// t, stream and scratch follow the Trial contract. Unlike LadderTrial's
// per-rung successes, the components are arbitrary reals — lifetimes,
// fault counts at death, availability fractions — which is what the
// churn workloads produce.
type LifetimeTrial func(t int, stream *rng.PCG, scratch any, out []float64) error

// LifetimeReport aggregates a RunLifetime execution: per-component mean
// and standard error over the committed trial prefix.
type LifetimeReport struct {
	// Trials is the number of committed trials.
	Trials int
	// Requested is the trial count passed to RunLifetime.
	Requested int
	// Workers is the worker count actually used.
	Workers int
	// Shards is the number of committed shards.
	Shards int
	// EarlyStopped reports whether TargetCI cut the run short.
	EarlyStopped bool
	// Mean[c] is the sample mean of component c over the committed trials.
	Mean []float64
	// StdErr[c] is the standard error of Mean[c] (sample std / sqrt(n));
	// 0 when fewer than two trials committed.
	StdErr []float64
}

// lifetimeShard is one shard's per-component running sums. The commit
// frontier folds them in shard order, so the floating-point accumulation
// order is worker-count independent.
type lifetimeShard struct {
	fn         LifetimeTrial
	out        []float64
	sum, sumSq []float64
	trials     int
}

func (sh *lifetimeShard) add(t int, stream *rng.PCG, scratch any) error {
	clear(sh.out)
	if err := sh.fn(t, stream, scratch, sh.out); err != nil {
		return err
	}
	sh.trials++
	for c, v := range sh.out {
		sh.sum[c] += v
		sh.sumSq[c] += v * v
	}
	return nil
}

// RunLifetime executes trials 0..trials-1, each producing a dims-vector
// of real metrics, and aggregates per-component means and standard
// errors. It extends Run's determinism contract to real vectors: sums
// are folded from zero along the shard-ordered commit frontier, so every
// reported number — including the floating-point rounding — is
// bit-identical for every worker count.
//
// When opts.TargetCI is positive the run stops at the shortest shard
// prefix on which EVERY component with a nonzero mean has relative 95%
// precision TargetCI: 1.96·stderr <= TargetCI·|mean|. Requiring all
// components prevents a degenerate metric from stopping the run — in a
// no-death churn regime the death time is constantly the horizon
// (stderr 0), and keying on it alone would commit the minimum trial
// count with the availability still unresolved. Zero-mean components are
// exempt (their relative precision is undefined; an all-zero metric is
// already exact). The rule reads only shard-ordered prefix sums, so the
// stopping point is as deterministic as the sums themselves.
func RunLifetime(trials, dims int, rootSeed uint64, opts Options, fn LifetimeTrial) (LifetimeReport, error) {
	if trials <= 0 || dims <= 0 {
		return LifetimeReport{}, fmt.Errorf("parallel: trials = %d, dims = %d", trials, dims)
	}
	sum := make([]float64, dims)
	sumSq := make([]float64, dims)
	n := 0
	claim := func() *lifetimeShard {
		return &lifetimeShard{fn: fn, out: make([]float64, dims), sum: make([]float64, dims), sumSq: make([]float64, dims)}
	}
	fold := func(sh *lifetimeShard, _ int, mayStop bool) bool {
		for c := range sum {
			sum[c] += sh.sum[c]
			sumSq[c] += sh.sumSq[c]
		}
		n += sh.trials
		if !mayStop {
			return false
		}
		for c := range sum {
			mean, se := meanStdErr(sum[c], sumSq[c], n)
			if mean != 0 && 1.96*se > opts.TargetCI*math.Abs(mean) {
				return false
			}
		}
		return true
	}
	workers, numShards, committed, err := dispatch(trials, rootSeed, opts, claim, fold)
	if err != nil {
		return LifetimeReport{}, err
	}
	rep := LifetimeReport{
		Trials:       n,
		Requested:    trials,
		Workers:      workers,
		Shards:       committed,
		EarlyStopped: committed < numShards,
		Mean:         make([]float64, dims),
		StdErr:       make([]float64, dims),
	}
	for c := range sum {
		rep.Mean[c], rep.StdErr[c] = meanStdErr(sum[c], sumSq[c], n)
	}
	return rep, nil
}

// meanStdErr derives (mean, standard error of the mean) from running
// sums. The variance clamp absorbs the tiny negative residues of
// catastrophic cancellation when all samples are (near-)identical.
func meanStdErr(sum, sumSq float64, n int) (mean, se float64) {
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	variance := (sumSq - sum*sum/float64(n)) / float64(n-1)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / float64(n))
}
