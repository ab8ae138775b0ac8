package fault

import (
	"math"
	"sort"
	"testing"

	"ftnet/internal/rng"
)

// TestAddThenClearRoundTrip pins the undo path the churn engine relies
// on: a batch added through BernoulliRecord is exactly reverted by
// RemoveAll of the recorded delta, and the occupancy bitmap marks
// precisely the words the batch occupied — no missing word (walks and
// Clear would skip its faults) and no extraneous word (they would visit
// words they never needed to).
func TestAddThenClearRoundTrip(t *testing.T) {
	const n = 1 << 14
	s := NewSet(n)
	for seed := uint64(0); seed < 30; seed++ {
		r := rng.NewPCG(41, seed)
		added := s.BernoulliRecord(r, 0.002+0.01*float64(seed%5), nil)

		wantWords := map[int]bool{}
		for _, i := range added {
			wantWords[i>>6] = true
		}
		gotWords := occupiedWords(s)
		if len(gotWords) != len(wantWords) {
			t.Fatalf("seed %d: the bitmap marks %d words, want %d", seed, len(gotWords), len(wantWords))
		}
		for _, w := range gotWords {
			if !wantWords[w] {
				t.Fatalf("seed %d: the bitmap marks word %d, which holds no fault", seed, w)
			}
		}

		s.RemoveAll(added)
		if s.Count() != 0 {
			t.Fatalf("seed %d: add-then-undo leaves %d faults", seed, s.Count())
		}
		for _, i := range added {
			if s.Has(i) {
				t.Fatalf("seed %d: node %d still faulty after undo", seed, i)
			}
		}
		// The words are zero again, so Remove has already unmarked them,
		// and Clear must leave a state indistinguishable from a fresh set.
		if w := occupiedWords(s); len(w) != 0 {
			t.Fatalf("seed %d: the bitmap still marks words %v after the undo", seed, w)
		}
		s.Clear()
		for w, word := range s.bits {
			if word != 0 {
				t.Fatalf("seed %d: word %d nonzero after undo+Clear", seed, w)
			}
		}
		checkOccupancy(t, s)
	}
}

// occupiedWords lists the words s's occupancy bitmap marks, in
// increasing order.
func occupiedWords(s *Set) []int {
	var out []int
	for w := range s.bits {
		if s.occ[w>>6]&(1<<(uint(w)&63)) != 0 {
			out = append(out, w)
		}
	}
	return out
}

// checkOccupancy fails t unless s's occupancy bitmap marks exactly its
// nonzero words, with no bit set past the last word.
func checkOccupancy(t *testing.T, s *Set) {
	t.Helper()
	if len(s.occ) != (len(s.bits)+63)/64 {
		t.Fatalf("bitmap has %d words for %d set words", len(s.occ), len(s.bits))
	}
	for w, word := range s.bits {
		if marked := s.occ[w>>6]&(1<<(uint(w)&63)) != 0; marked != (word != 0) {
			t.Fatalf("word %d = %#x but its bitmap bit is %v", w, word, marked)
		}
	}
	if tail := len(s.bits) & 63; tail != 0 && s.occ[len(s.occ)-1]>>uint(tail) != 0 {
		t.Fatalf("bitmap marks words past the last of %d", len(s.bits))
	}
}

// TestRemoveRecordExactDelta drives random add/remove interleavings
// against a plain map model: RemoveRecord must report exactly the nodes
// that transitioned faulty -> healthy, in increasing order, and leave
// every other node untouched.
func TestRemoveRecordExactDelta(t *testing.T) {
	const n = 5000
	for seed := uint64(0); seed < 10; seed++ {
		r := rng.NewPCG(99, seed)
		s := NewSet(n)
		model := map[int]bool{}
		for step := 0; step < 40; step++ {
			if r.Float64() < 0.5 || len(model) == 0 {
				added := s.BernoulliRecord(r, 0.01, nil)
				for _, i := range added {
					if model[i] {
						t.Fatalf("seed %d step %d: node %d reported added but already faulty", seed, step, i)
					}
					model[i] = true
				}
			} else {
				removed := s.RemoveRecord(r, 0.3, nil)
				if !sort.IntsAreSorted(removed) {
					t.Fatalf("seed %d step %d: removed list not increasing: %v", seed, step, removed)
				}
				for _, i := range removed {
					if !model[i] {
						t.Fatalf("seed %d step %d: node %d reported removed but was healthy", seed, step, i)
					}
					delete(model, i)
				}
			}
			if s.Count() != len(model) {
				t.Fatalf("seed %d step %d: count %d, model %d", seed, step, s.Count(), len(model))
			}
			for _, i := range s.Slice() {
				if !model[i] {
					t.Fatalf("seed %d step %d: node %d faulty in set, healthy in model", seed, step, i)
				}
			}
		}
	}
}

// TestRemoveRecordMarginals checks the healing probability: over many
// independent passes at rate p, each faulty node must be removed with
// marginal probability p (binomial confidence band), mirroring the
// Extend marginal test on the additive side.
func TestRemoveRecordMarginals(t *testing.T) {
	const n = 20000
	const walks = 400
	p := 0.2
	removedTotal := 0
	faultyTotal := 0
	for w := uint64(0); w < walks; w++ {
		r := rng.NewPCG(7, w)
		s := NewSet(n)
		s.Bernoulli(r, 0.05)
		faultyTotal += s.Count()
		before := s.Count()
		rem := s.RemoveRecord(r, p, nil)
		removedTotal += len(rem)
		if s.Count()+len(rem) != before {
			t.Fatalf("walk %d: %d + %d removed != %d before", w, s.Count(), len(rem), before)
		}
	}
	mean := float64(removedTotal) / float64(faultyTotal)
	sigma := math.Sqrt(p * (1 - p) / float64(faultyTotal))
	if math.Abs(mean-p) > 5*sigma {
		t.Fatalf("healing rate %.4f, want %.4f +- %.4f", mean, p, 5*sigma)
	}
	// Edge rates: p=0 removes nothing, p=1 removes everything.
	s := NewSet(100)
	s.Bernoulli(rng.New(3), 0.3)
	before := s.Count()
	if got := s.RemoveRecord(rng.New(4), 0, nil); len(got) != 0 || s.Count() != before {
		t.Fatal("p=0 must be a no-op")
	}
	if got := s.RemoveRecord(rng.New(5), 1, nil); len(got) != before || s.Count() != 0 {
		t.Fatalf("p=1 removed %d of %d", len(got), before)
	}
}

// TestNth pins the rank-select helper against the sorted slice view.
func TestNth(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		s := NewSet(3000)
		s.Bernoulli(rng.NewPCG(11, seed), 0.02)
		want := s.Slice()
		for k, idx := range want {
			if got := s.Nth(k); got != idx {
				t.Fatalf("seed %d: Nth(%d) = %d, want %d", seed, k, got, idx)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Nth out of range must panic")
		}
	}()
	NewSet(10).Nth(0)
}
