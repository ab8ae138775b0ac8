package parallel

import (
	"errors"
	"sync"
	"testing"

	"ftnet/internal/core"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// synthTrial is a nontrivial trial body: it draws a variable amount of
// randomness from the stream (so execution time varies across trials)
// and succeeds with probability ~0.7.
func synthTrial(t int, stream *rng.PCG, _ any) (stats.Outcome, error) {
	spin := stream.Intn(200)
	acc := uint64(0)
	for i := 0; i < spin; i++ {
		acc ^= stream.Uint64()
	}
	if stream.Bernoulli(0.7) {
		return stats.Success, nil
	}
	return stats.Failure, nil
}

// TestParallelDeterminism is the engine's core contract: the same root
// seed must produce bit-identical committed counts for 1, 4, and 16
// workers, with and without early stopping, and on the real Theorem 2
// survival workload.
func TestParallelDeterminism(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		var ref Report
		for i, workers := range []int{1, 4, 16} {
			rep, err := Run(500, 42, Options{Workers: workers}, synthTrial)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trials != 500 {
				t.Fatalf("workers=%d: ran %d/500 trials", workers, rep.Trials)
			}
			if i == 0 {
				ref = rep
				continue
			}
			if rep.Successes != ref.Successes || rep.Trials != ref.Trials {
				t.Fatalf("workers=%d: %d/%d successes, want %d/%d",
					workers, rep.Successes, rep.Trials, ref.Successes, ref.Trials)
			}
		}
	})

	t.Run("early-stop", func(t *testing.T) {
		var ref Report
		for i, workers := range []int{1, 4, 16} {
			rep, err := Run(100000, 42, Options{Workers: workers, TargetCI: 0.08}, synthTrial)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.EarlyStopped || rep.Trials >= rep.Requested {
				t.Fatalf("workers=%d: expected early stop, got %+v", workers, rep)
			}
			if i == 0 {
				ref = rep
				continue
			}
			if rep.Successes != ref.Successes || rep.Trials != ref.Trials || rep.Shards != ref.Shards {
				t.Fatalf("workers=%d: stop point differs: %+v vs %+v", workers, rep, ref)
			}
		}
	})

	t.Run("survival-b2", func(t *testing.T) {
		g, err := core.NewGraph(core.Params{D: 2, W: 4, Pitch: 16, Scale: 1}) // n=192
		if err != nil {
			t.Fatal(err)
		}
		// Well above the theorem probability so both outcomes occur.
		prob := 40 * g.P.TheoremFailureProb()
		trial := func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
			sc := scratch.(*core.Scratch)
			faults := sc.Faults(g.NumNodes())
			faults.Bernoulli(stream, prob)
			_, err := g.ContainTorus(faults, core.ExtractOptions{Scratch: sc})
			if err == nil {
				return stats.Success, nil
			}
			var ue *core.UnhealthyError
			if errors.As(err, &ue) {
				return stats.Failure, nil
			}
			return stats.Failure, err
		}
		var ref Report
		for i, workers := range []int{1, 4, 16} {
			// ShardSize 1 keeps 24 shards so the 4- and 16-worker runs
			// really use that many workers instead of clamping to the
			// shard count.
			rep, err := Run(24, 7, Options{Workers: workers, ShardSize: 1,
				NewScratch: func() any { return core.NewScratch() }}, trial)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = rep
				if ref.Successes == 0 || ref.Successes == ref.Trials {
					t.Logf("warning: degenerate survival count %d/%d", ref.Successes, ref.Trials)
				}
				continue
			}
			if rep.Successes != ref.Successes || rep.Trials != ref.Trials {
				t.Fatalf("workers=%d: %d/%d, want %d/%d",
					workers, rep.Successes, rep.Trials, ref.Successes, ref.Trials)
			}
		}
	})
}

// TestParallelRace exercises the pool with many tiny trials and shards
// so the race detector sees heavy dispatch/commit contention.
func TestParallelRace(t *testing.T) {
	rep, err := Run(4000, 3, Options{Workers: 16, ShardSize: 1,
		NewScratch: func() any { return new(int) }},
		func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
			c := scratch.(*int)
			*c++
			if stream.Bernoulli(0.5) {
				return stats.Success, nil
			}
			return stats.Failure, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 4000 {
		t.Fatalf("ran %d trials", rep.Trials)
	}
}

func TestParallelScratchPerWorker(t *testing.T) {
	var mu sync.Mutex
	created := 0
	rep, err := Run(200, 1, Options{Workers: 4, NewScratch: func() any {
		mu.Lock()
		created++
		mu.Unlock()
		return new(int)
	}}, func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
		if scratch == nil {
			return stats.Failure, errors.New("nil scratch")
		}
		return stats.Success, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Successes != 200 {
		t.Fatalf("got %+v", rep)
	}
	if created > 4 {
		t.Fatalf("NewScratch called %d times for 4 workers", created)
	}
}

func TestParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(1000, 1, Options{Workers: 4},
		func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
			if tr == 37 {
				return stats.Failure, boom
			}
			return stats.Success, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelStreamsAreTrialKeyed(t *testing.T) {
	// The stream handed to trial t must depend only on (rootSeed, t):
	// record each trial's first draw and compare across worker counts.
	collect := func(workers int) []uint64 {
		draws := make([]uint64, 64)
		_, err := Run(64, 99, Options{Workers: workers},
			func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
				draws[tr] = stream.Uint64()
				return stats.Success, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return draws
	}
	a, b := collect(1), collect(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d stream differs across worker counts", i)
		}
		if a[i] == rng.NewPCG(99, uint64(i+1)).Uint64() {
			t.Fatalf("trial %d appears to use the wrong stream key", i)
		}
	}
}

func TestParallelAutoShardSizeBounded(t *testing.T) {
	// Huge trial budgets must not blow up the shard table: the auto
	// shard size doubles until the shard count fits the cap.
	rep, err := Run(1_000_000, 2, Options{Workers: 4},
		func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
			return stats.Success, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 1_000_000 || rep.Successes != 1_000_000 {
		t.Fatalf("got %+v", rep)
	}
	if rep.Shards > 1<<16 {
		t.Fatalf("auto shard size left %d shards, want <= %d", rep.Shards, 1<<16)
	}
}

func TestParallelRejectsZeroTrials(t *testing.T) {
	if _, err := Run(0, 1, Options{}, nil); err == nil {
		t.Error("0 trials accepted")
	}
}

func TestParallelShardRemainder(t *testing.T) {
	// Trial count not divisible by the shard size: every trial must
	// still run exactly once.
	seen := make([]int32, 101)
	var mu sync.Mutex
	rep, err := Run(101, 5, Options{Workers: 7, ShardSize: 8},
		func(tr int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
			mu.Lock()
			seen[tr]++
			mu.Unlock()
			return stats.Success, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 101 || rep.Successes != 101 {
		t.Fatalf("got %+v", rep)
	}
	for tr, c := range seen {
		if c != 1 {
			t.Fatalf("trial %d ran %d times", tr, c)
		}
	}
}
