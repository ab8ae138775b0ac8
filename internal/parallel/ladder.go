package parallel

import (
	"fmt"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// LadderTrial runs one Monte-Carlo trial across all k rungs of a ladder,
// writing one outcome per rung into out (len(out) == k). t, stream and
// scratch follow the Trial contract. stopped[r] reports whether rung r's
// result is already committed (its Wilson interval met the target over an
// earlier shard prefix): the trial MAY skip the work for such a rung —
// its out entry is discarded — but everything it does for later rungs
// must be bit-identical whether or not earlier rungs were evaluated.
// Coupled sweep trials satisfy this by drawing all randomness during
// rung-independent sampling and keeping each rung's evaluation a pure
// function of the sampled state (core.Session's equivalence contract).
type LadderTrial func(t int, stream *rng.PCG, scratch any, stopped []bool, out []stats.Outcome) error

// RungReport is one rung's aggregated result.
type RungReport struct {
	stats.Result
	// Shards is the number of shards committed for this rung.
	Shards int
	// EarlyStopped reports whether TargetCI cut this rung short.
	EarlyStopped bool
}

// LadderReport aggregates a RunLadder execution.
type LadderReport struct {
	Rungs []RungReport
	// Requested is the trial count passed to RunLadder.
	Requested int
	// Workers is the worker count actually used.
	Workers int
}

// ladderShard is one shard's per-rung outcome tallies, plus the rung
// stop state snapshotted when the shard was claimed.
type ladderShard struct {
	fn                LadderTrial
	stopped           []bool
	out               []stats.Outcome
	successes, trials []int
}

func (sh *ladderShard) add(t int, stream *rng.PCG, scratch any) error {
	if err := sh.fn(t, stream, scratch, sh.stopped, sh.out); err != nil {
		return err
	}
	for r, stopped := range sh.stopped {
		if stopped {
			continue
		}
		sh.trials[r]++
		if sh.out[r] == stats.Success {
			sh.successes[r]++
		}
	}
	return nil
}

// RunLadder executes trials 0..trials-1, each evaluating all k rungs, and
// aggregates per-rung outcomes. It extends Run's determinism contract to
// vectors: each rung's committed prefix is the shortest shard prefix whose
// 95% Wilson interval is narrower than opts.TargetCI — a pure function of
// outcomes in shard order, hence bit-identical for every worker count.
// Rungs that have stopped are advertised to later-dispatched trials via
// the stopped snapshot, so a coupled sweep trial can skip their pipeline
// work; outcomes reported for stopped rungs are discarded. The run ends
// when every rung has stopped or the trial budget is exhausted.
func RunLadder(trials, k int, rootSeed uint64, opts Options, fn LadderTrial) (LadderReport, error) {
	if trials <= 0 || k <= 0 {
		return LadderReport{}, fmt.Errorf("parallel: trials = %d, rungs = %d", trials, k)
	}
	var (
		commit    = make([]int, k) // per-rung committed shard count; 0 while open
		successes = make([]int, k)
		ran       = make([]int, k)
		open      = k
	)
	claim := func() *ladderShard {
		sh := &ladderShard{fn: fn, stopped: make([]bool, k), out: make([]stats.Outcome, k),
			successes: make([]int, k), trials: make([]int, k)}
		for r := range sh.stopped {
			sh.stopped[r] = commit[r] > 0
		}
		return sh
	}
	fold := func(sh *ladderShard, prefix int, mayStop bool) bool {
		for r := range commit {
			if commit[r] > 0 {
				continue
			}
			successes[r] += sh.successes[r]
			ran[r] += sh.trials[r]
			if mayStop && stats.NewResult(successes[r], ran[r]).Width() <= opts.TargetCI {
				commit[r] = prefix
				open--
			}
		}
		return open == 0
	}
	workers, numShards, committed, err := dispatch(trials, rootSeed, opts, claim, fold)
	if err != nil {
		return LadderReport{}, err
	}
	rep := LadderReport{Rungs: make([]RungReport, k), Requested: trials, Workers: workers}
	for r := range rep.Rungs {
		shards := committed
		if commit[r] > 0 {
			shards = commit[r]
		}
		rep.Rungs[r] = RungReport{Result: stats.NewResult(successes[r], ran[r]), Shards: shards, EarlyStopped: shards < numShards}
	}
	return rep, nil
}
