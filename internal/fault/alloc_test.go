package fault

import (
	"testing"

	"ftnet/internal/rng"
)

// walkSum is the sink of TestHotPathAllocs' ForEach visitor, which
// captures nothing, so the walk alone is measured.
var walkSum int

// TestHotPathAllocs is the runtime counterpart of the hotpath analyzer
// (internal/analysis/hotpath) for the //ftnet:hotpath-annotated
// record/skip samplers and sparse walks: with caller-sized record
// slices they must run allocation-free. The static rule and this
// measurement cross-check each other — break either and the other
// still fails.
func TestHotPathAllocs(t *testing.T) {
	const n = 1 << 12
	s := NewSet(n)
	r := rng.NewPCG(7, 11)
	buf := make([]int, 0, n)

	if a := testing.AllocsPerRun(100, func() {
		s.Clear()
		buf = s.BernoulliRecord(r, 0.02, buf[:0])
	}); a > 0 {
		t.Errorf("BernoulliRecord: %v allocs/op, want 0", a)
	}

	// Re-sampling the base set inside the measured closure would charge
	// Bernoulli's internal nil-slice growth to the target, so each run
	// instead reverts its own recorded delta: RemoveAll undoes Extend
	// exactly, and re-adding undoes RemoveRecord.
	s.Clear()
	s.Bernoulli(r, 0.02)
	if a := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = s.Extend(r, 0.02, 0.05, buf[:0])
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}
		s.RemoveAll(buf)
	}); a > 0 {
		t.Errorf("Extend: %v allocs/op, want 0", a)
	}

	s.Clear()
	s.Bernoulli(r, 0.05)
	if a := testing.AllocsPerRun(100, func() {
		buf = s.RemoveRecord(r, 0.5, buf[:0])
		for _, i := range buf {
			s.Add(i)
		}
	}); a > 0 {
		t.Errorf("RemoveRecord: %v allocs/op, want 0", a)
	}

	// The sparse walks: ForEach and Nth over the set, and Clear with a
	// refill from the recorded nodes.
	s.Clear()
	buf = s.BernoulliRecord(r, 0.005, buf[:0])
	if a := testing.AllocsPerRun(100, func() {
		s.ForEach(func(i int) { walkSum += i })
	}); a > 0 {
		t.Errorf("ForEach: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		walkSum += s.Nth(walkSum % s.Count())
	}); a > 0 {
		t.Errorf("Nth: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		s.Clear()
		for _, i := range buf {
			s.Add(i)
		}
	}); a > 0 {
		t.Errorf("Clear: %v allocs/op, want 0", a)
	}
}
