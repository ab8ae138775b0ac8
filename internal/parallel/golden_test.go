package parallel

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// The golden pins below were recorded from the three entry points'
// original implementations. TestParallelDeterminism* only compares worker
// counts with each other; these fix the absolute stopping points and
// sums, so a dispatcher change that moved them identically for every
// worker count still fails.
var (
	goldenRun = Report{
		Result:       stats.NewResult(354, 520),
		Requested:    100000,
		Shards:       65,
		EarlyStopped: true,
	}
	goldenLadder = []RungReport{
		{Result: stats.NewResult(40, 40), Shards: 5, EarlyStopped: true},
		{Result: stats.NewResult(202, 384), Shards: 48, EarlyStopped: true},
		{Result: stats.NewResult(110, 336), Shards: 42, EarlyStopped: true},
		{Result: stats.NewResult(75, 296), Shards: 37, EarlyStopped: true},
		{Result: stats.NewResult(50, 248), Shards: 31, EarlyStopped: true},
		{Result: stats.NewResult(20, 168), Shards: 21, EarlyStopped: true},
	}
	goldenLifetimeMean   = []uint64{0x3fe071dec927655a, 0x3ff08191dc4f2da4, 0x3ff7f3608bbc0d66, 0x3ffed070a0af19e0}
	goldenLifetimeStdErr = []uint64{0x3f95e7ab16fdf813, 0x3fa512e127cff2ed, 0x3fb0306b32afcf2d, 0x3fb858981bcf0c53}
)

// Committed trial counts of the golden runs: every trial at or past the
// index is beyond the stopping point.
const (
	goldenRunStop      = 520
	goldenLadderStop   = 48 * DefaultShardSize
	goldenLifetimeStop = 176
)

func TestParallelDeterminismGolden(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		rep, err := Run(100000, 42, Options{Workers: workers, TargetCI: 0.08}, synthTrial)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenRun
		want.Workers = workers
		if rep != want {
			t.Errorf("Run workers=%d: %+v, want %+v", workers, rep, want)
		}

		lad, err := RunLadder(200000, 6, 42, Options{Workers: workers, TargetCI: 0.1}, synthLadder)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lad.Rungs, goldenLadder) {
			t.Errorf("RunLadder workers=%d: %+v, want %+v", workers, lad.Rungs, goldenLadder)
		}

		life, err := RunLifetime(400, 4, 77, Options{Workers: workers, TargetCI: 0.1}, syntheticLifetime(4))
		if err != nil {
			t.Fatal(err)
		}
		if life.Trials != goldenLifetimeStop || life.Shards != 22 || !life.EarlyStopped {
			t.Errorf("RunLifetime workers=%d: %d trials, %d shards, early=%v; want 176, 22, true",
				workers, life.Trials, life.Shards, life.EarlyStopped)
		}
		for c := range goldenLifetimeMean {
			if got := math.Float64bits(life.Mean[c]); got != goldenLifetimeMean[c] {
				t.Errorf("RunLifetime workers=%d: Mean[%d] bits %#x, want %#x", workers, c, got, goldenLifetimeMean[c])
			}
			if got := math.Float64bits(life.StdErr[c]); got != goldenLifetimeStdErr[c] {
				t.Errorf("RunLifetime workers=%d: StdErr[%d] bits %#x, want %#x", workers, c, got, goldenLifetimeStdErr[c])
			}
		}
	}
}

// TestParallelDiscardBeyondCommit pins the Trial contract's discard rule:
// an error from a trial past the early-stop commit point is dropped, and
// the run reports exactly what the error-free run reports. With several
// workers the last committed trial waits until a trial past the stop
// point has failed, so the error really reaches the dispatcher before the
// commit decision.
func TestParallelDiscardBeyondCommit(t *testing.T) {
	boom := errors.New("boom")
	engines := []struct {
		name string
		stop int
		run  func(workers int, fail func(t int) error) (any, error)
	}{
		{"Run", goldenRunStop, func(workers int, fail func(int) error) (any, error) {
			return Run(100000, 42, Options{Workers: workers, TargetCI: 0.08},
				func(t int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
					if err := fail(t); err != nil {
						return stats.Failure, err
					}
					return synthTrial(t, stream, scratch)
				})
		}},
		{"RunLadder", goldenLadderStop, func(workers int, fail func(int) error) (any, error) {
			return RunLadder(200000, 6, 42, Options{Workers: workers, TargetCI: 0.1},
				func(t int, stream *rng.PCG, scratch any, stopped []bool, out []stats.Outcome) error {
					if err := fail(t); err != nil {
						return err
					}
					return synthLadder(t, stream, scratch, stopped, out)
				})
		}},
		{"RunLifetime", goldenLifetimeStop, func(workers int, fail func(int) error) (any, error) {
			trial := syntheticLifetime(4)
			return RunLifetime(400, 4, 77, Options{Workers: workers, TargetCI: 0.1},
				func(t int, stream *rng.PCG, scratch any, out []float64) error {
					if err := fail(t); err != nil {
						return err
					}
					return trial(t, stream, scratch, out)
				})
		}},
	}
	for _, e := range engines {
		for _, workers := range []int{1, 4, 16} {
			want, err := e.run(workers, func(int) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			failed := make(chan struct{})
			var once sync.Once
			got, err := e.run(workers, func(tr int) error {
				switch {
				case tr >= e.stop:
					once.Do(func() { close(failed) })
					return boom
				case tr == e.stop-1 && workers > 1:
					<-failed
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s workers=%d: error past the stop point surfaced: %v", e.name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: %+v, want the error-free %+v", e.name, workers, got, want)
			}
		}
	}
}
