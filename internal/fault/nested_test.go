package fault

import (
	"math"
	"testing"

	"ftnet/internal/rng"
)

// TestExtendNesting is the coupled-ladder sampler's core property test:
// walking a rate ladder with Extend must keep every rung a superset of
// the previous one, report exactly the delta through added, and leave
// each rung's marginal fault count consistent with an exact
// Bernoulli(p_k) sample (checked against binomial confidence bands over
// many walks).
func TestExtendNesting(t *testing.T) {
	const n = 20000
	rates := []float64{1e-4, 5e-4, 2e-3, 1e-2, 5e-2}
	const walks = 200
	counts := make([]float64, len(rates))
	s := NewSet(n)
	for w := 0; w < walks; w++ {
		s.Clear()
		r := rng.NewPCG(77, uint64(w))
		prev := 0.0
		var prevSet *Set
		for k, rate := range rates {
			before := s.Count()
			added, err := s.Extend(r, prev, rate, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Count() != before+len(added) {
				t.Fatalf("walk %d rung %d: count grew by %d, added reports %d",
					w, k, s.Count()-before, len(added))
			}
			for i := 1; i < len(added); i++ {
				if added[i] <= added[i-1] {
					t.Fatalf("walk %d rung %d: added not strictly increasing", w, k)
				}
			}
			if prevSet != nil {
				prevSet.ForEach(func(i int) {
					if !s.Has(i) {
						t.Fatalf("walk %d rung %d: nesting violated at node %d", w, k, i)
					}
				})
			}
			prevSet = s.Clone()
			prev = rate
			counts[k] += float64(s.Count())
		}
	}
	for k, rate := range rates {
		mean := counts[k] / walks
		want := float64(n) * rate
		// 5-sigma band on the mean of `walks` binomial draws.
		sigma := math.Sqrt(float64(n)*rate*(1-rate)) / math.Sqrt(walks)
		if math.Abs(mean-want) > 5*sigma+1 {
			t.Errorf("rung %d (p=%g): mean count %.2f, want %.2f +- %.2f", k, rate, mean, want, 5*sigma)
		}
	}
}

// TestExtendMatchesCanonicalCoupling cross-checks the conditional-rate
// construction against the canonical F(p) = {i : U_i < p} coupling: the
// distribution of |F(p2) \ F(p1)| must center on n*(p2-p1).
func TestExtendMatchesCanonicalCoupling(t *testing.T) {
	const n = 50000
	const p1, p2 = 0.01, 0.03
	const walks = 100
	var delta float64
	s := NewSet(n)
	for w := 0; w < walks; w++ {
		s.Clear()
		r := rng.NewPCG(5, uint64(w))
		s.Bernoulli(r, p1)
		before := s.Count()
		if _, err := s.Extend(r, p1, p2, nil); err != nil {
			t.Fatal(err)
		}
		delta += float64(s.Count() - before)
	}
	mean := delta / walks
	want := float64(n) * (p2 - p1)
	sigma := math.Sqrt(float64(n)*(p2-p1)) / math.Sqrt(walks)
	if math.Abs(mean-want) > 5*sigma {
		t.Errorf("delta mean %.1f, want %.1f +- %.1f", mean, want, 5*sigma)
	}
}

func TestExtendRejectsDescendingRates(t *testing.T) {
	s := NewSet(10)
	if _, err := s.Extend(rng.New(1), 0.5, 0.1, nil); err == nil {
		t.Error("descending Extend accepted")
	}
	if _, err := s.Extend(rng.New(1), -0.1, 0.5, nil); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestSparseClear pins the occupancy-bitmap Clear: repeated fill/clear
// cycles must fully empty the set and its bitmap, including around
// Remove churn and in dense rounds that occupy most words.
func TestSparseClear(t *testing.T) {
	const n = 4096
	s := NewSet(n)
	r := rng.New(3)
	for round := 0; round < 20; round++ {
		p := 1e-3
		if round%5 == 4 {
			p = 0.9 // dense round: nearly every word occupied
		}
		s.Bernoulli(r, p)
		if round%3 == 1 && s.Count() > 0 {
			s.Remove(s.Slice()[0])
		}
		checkOccupancy(t, s)
		s.Clear()
		if s.Count() != 0 {
			t.Fatalf("round %d: count %d after Clear", round, s.Count())
		}
		for i := 0; i < n; i++ {
			if s.Has(i) {
				t.Fatalf("round %d: node %d still set after Clear", round, i)
			}
		}
		if w := occupiedWords(s); len(w) != 0 {
			t.Fatalf("round %d: the bitmap marks words %v after Clear", round, w)
		}
	}
}

// TestBernoulliRecordMatchesBernoulli pins that the recording variant
// draws the identical stream and produces the identical set.
func TestBernoulliRecordMatchesBernoulli(t *testing.T) {
	const n = 10000
	a, b := NewSet(n), NewSet(n)
	a.Bernoulli(rng.New(9), 0.01)
	added := b.BernoulliRecord(rng.New(9), 0.01, nil)
	if a.Count() != b.Count() || a.Count() != len(added) {
		t.Fatalf("counts differ: %d vs %d (added %d)", a.Count(), b.Count(), len(added))
	}
	for _, i := range added {
		if !a.Has(i) {
			t.Fatalf("node %d recorded but not in plain Bernoulli set", i)
		}
	}
}
