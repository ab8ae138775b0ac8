// Package parallel is the Monte-Carlo trial engine for the experiment
// suite. One dispatcher runs trials on a bounded worker pool for Run
// (success counts), RunLadder (a count per rung) and RunLifetime (real
// outcome vectors), which differ only in what a shard accumulates and in
// the stopping rule, with three properties the serial driver it replaces
// did not have.
//
// Determinism. The trial space is split into fixed-size shards that are
// dispatched to workers in index order. Every trial t draws randomness
// only from its private PCG stream keyed by (root seed, t)
// (rng.NewPCG), and outcomes are committed shard-by-shard in index
// order, so the aggregated counts — including the early-stopping
// decision — are bit-identical for every worker count and GOMAXPROCS
// setting. TestParallelDeterminism pins this contract.
//
// Bounded memory. Each worker owns one scratch value created by
// Options.NewScratch and hands it to every trial it runs, so per-trial
// allocations (fault bitsets, band/extraction buffers via core.Scratch)
// are paid once per worker, not once per trial.
//
// Early stopping. When Options.TargetCI is set, the engine commits the
// shortest shard prefix that meets the entry point's stopping rule (for
// Run, a 95% Wilson interval narrower than the target), once four
// shards' worth of trials are in. The stopping point is a pure function
// of outcomes in shard order, so it too is worker-count independent;
// shards that finished beyond the committed prefix are discarded.
package parallel

import (
	"fmt"
	"runtime"
	"sync"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// Trial runs one Monte-Carlo trial. t is the global trial index and
// stream is the trial's private random stream, a pure function of the
// engine's root seed and t — draw all randomness from it. scratch is
// the executing worker's scratch value (nil unless Options.NewScratch
// is set); it is never shared between concurrently running trials, so
// buffers inside it can be reused freely. A non-nil error from a trial
// in the committed prefix aborts the whole run: errors mean bugs, not
// survival failures. Errors from trials beyond an early-stop commit
// point are discarded by design — a serial run would never have
// executed those trials, and reporting them would make the outcome
// depend on the worker count.
type Trial func(t int, stream *rng.PCG, scratch any) (stats.Outcome, error)

// Options tunes an engine run. The zero value runs all trials on
// GOMAXPROCS workers with no scratch and no early stopping.
type Options struct {
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is the number of consecutive trials a worker claims at
	// once; 0 picks DefaultShardSize, doubled as needed so the shard
	// table stays bounded (maxAutoShards) for huge trial budgets — a
	// deterministic function of the trial count. Results are independent
	// of the shard size only in the no-early-stop case: TargetCI commits
	// whole shards, so changing ShardSize can move the stopping point
	// (it never affects which stream trial t sees).
	ShardSize int
	// NewScratch, if set, is called once per worker to build its
	// scratch value.
	NewScratch func() any
	// TargetCI, if positive, stops the run once the committed prefix
	// meets the entry point's stopping rule at this width.
	TargetCI float64
}

// DefaultShardSize is the trials-per-shard granularity when
// Options.ShardSize is 0: small enough to load-balance trial counts in
// the tens, large enough that shard bookkeeping is noise.
const DefaultShardSize = 8

// maxAutoShards caps the shard table when the engine picks the shard
// size itself, so a huge trial budget (the natural pattern with
// TargetCI: "ask for millions, stop when tight") costs megabytes of
// bookkeeping, not gigabytes. Explicit Options.ShardSize is honored
// as given.
const maxAutoShards = 1 << 16

// minShards is the shortest committed prefix, in shards, on which a
// stopping rule may fire.
const minShards = 4

// Report is the outcome of a Run: the aggregated statistics plus how
// the engine got them.
type Report struct {
	stats.Result
	// Requested is the trial count passed to Run; Result.Trials can be
	// smaller when early stopping triggered.
	Requested int
	// Workers is the worker count actually used.
	Workers int
	// Shards is the number of committed shards.
	Shards int
	// EarlyStopped reports whether TargetCI cut the run short.
	EarlyStopped bool
}

// Run executes trials 0..trials-1 and aggregates their outcomes; it is a
// one-rung RunLadder. The returned error is the recorded trial error with
// the smallest trial index among committed shards, if any.
func Run(trials int, rootSeed uint64, opts Options, fn Trial) (Report, error) {
	rep, err := RunLadder(trials, 1, rootSeed, opts,
		func(t int, stream *rng.PCG, scratch any, _ []bool, out []stats.Outcome) (err error) {
			out[0], err = fn(t, stream, scratch)
			return err
		})
	if err != nil {
		return Report{}, err
	}
	rung := rep.Rungs[0]
	return Report{
		Result:       rung.Result,
		Requested:    trials,
		Workers:      rep.Workers,
		Shards:       rung.Shards,
		EarlyStopped: rung.EarlyStopped,
	}, nil
}

// accumulator runs one shard's trials (add runs trial t) and collects
// their outcomes; each shard has its own, filled by one worker.
type accumulator interface {
	add(t int, stream *rng.PCG, scratch any) error
}

// slot is one finished shard, written once by the worker that ran it and
// read by the commit frontier.
type slot[A accumulator] struct {
	acc A
	err error
}

// dispatch is the engine behind every entry point. Workers claim
// fixed-size shards in index order, and trial t draws from
// rng.NewPCG(rootSeed, t). claim builds a shard's accumulator under the
// dispatch lock. fold receives finished shards in index order, also under
// the lock, with the committed prefix length in shards and whether a
// stopping rule may fire (TargetCI set, at least minShards shards); it
// returns true to commit that prefix. Shards beyond the commit point are
// discarded, errors included; an error in a shard the frontier reaches
// first aborts the run. dispatch returns the worker count used, the shard
// count and the committed shard count.
func dispatch[A accumulator](trials int, rootSeed uint64, opts Options,
	claim func() A, fold func(acc A, prefix int, mayStop bool) bool) (workers, numShards, committed int, err error) {
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
		for (trials+shardSize-1)/shardSize > maxAutoShards {
			shardSize *= 2
		}
	}
	numShards = (trials + shardSize - 1) / shardSize
	workers = opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, numShards)

	slots := make([]*slot[A], numShards)
	committed = -1 // no commit decision yet
	var (
		mu        sync.Mutex
		nextShard int // next shard index to claim
		frontier  int // first shard not yet folded
		wg        sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch any
			if opts.NewScratch != nil {
				scratch = opts.NewScratch()
			}
			for {
				mu.Lock()
				if committed >= 0 || nextShard >= numShards {
					mu.Unlock()
					return
				}
				s := nextShard
				nextShard++
				st := &slot[A]{acc: claim()}
				mu.Unlock()

				for t := s * shardSize; t < min((s+1)*shardSize, trials); t++ {
					if err := st.acc.add(t, rng.NewPCG(rootSeed, uint64(t)), scratch); err != nil {
						st.err = fmt.Errorf("trial %d: %w", t, err)
						break
					}
				}

				mu.Lock()
				slots[s] = st
				for committed < 0 && frontier < numShards && slots[frontier] != nil {
					sh := slots[frontier]
					slots[frontier] = nil // folded: never read again
					frontier++
					switch {
					case sh.err != nil:
						err, committed = sh.err, frontier
					case fold(sh.acc, frontier, opts.TargetCI > 0 && frontier >= minShards):
						committed = frontier
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if committed < 0 {
		committed = numShards
	}
	return workers, numShards, committed, err
}
