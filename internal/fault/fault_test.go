package fault

import (
	"slices"
	"testing"
	"testing/quick"

	"ftnet/internal/fterr"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(100)
	if s.Count() != 0 || s.Len() != 100 {
		t.Fatal("empty set wrong")
	}
	s.Add(5)
	s.Add(5)
	s.Add(99)
	if s.Count() != 2 || !s.Has(5) || !s.Has(99) || s.Has(4) {
		t.Fatal("Add/Has wrong")
	}
	s.Remove(5)
	s.Remove(5)
	if s.Count() != 1 || s.Has(5) {
		t.Fatal("Remove wrong")
	}
	c := s.Clone()
	c.Add(1)
	if s.Has(1) {
		t.Fatal("Clone aliases parent")
	}
	s.Clear()
	if s.Count() != 0 || s.Has(99) {
		t.Fatal("Clear wrong")
	}
}

func TestSetForEachOrder(t *testing.T) {
	s := NewSet(200)
	want := []int{0, 63, 64, 127, 128, 199}
	for _, v := range want {
		s.Add(v)
	}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCountRange(t *testing.T) {
	s := NewSet(300)
	for _, v := range []int{0, 10, 63, 64, 65, 128, 299} {
		s.Add(v)
	}
	cases := []struct{ lo, hi, want int }{
		{0, 300, 7}, {0, 1, 1}, {1, 10, 0}, {10, 66, 4}, {64, 129, 3}, {299, 300, 1}, {5, 5, 0},
	}
	for _, c := range cases {
		if got := s.CountRange(c.lo, c.hi); got != c.want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestCountRangeMatchesNaive(t *testing.T) {
	f := func(seed uint64, lo8, hi8 uint8) bool {
		s := NewSet(137)
		s.Bernoulli(rng.New(seed), 0.3)
		lo, hi := int(lo8)%137, int(hi8)%137
		if lo > hi {
			lo, hi = hi, lo
		}
		naive := 0
		for i := lo; i < hi; i++ {
			if s.Has(i) {
				naive++
			}
		}
		return s.CountRange(lo, hi) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulliRate(t *testing.T) {
	s := NewSet(100000)
	s.Bernoulli(rng.New(1), 0.01)
	if c := s.Count(); c < 800 || c > 1200 {
		t.Errorf("Bernoulli(0.01) produced %d faults, want ~1000", c)
	}
	s2 := NewSet(1000)
	s2.Bernoulli(rng.New(2), 0)
	if s2.Count() != 0 {
		t.Error("Bernoulli(0) added faults")
	}
	s3 := NewSet(50)
	s3.Bernoulli(rng.New(3), 1)
	if s3.Count() != 50 {
		t.Error("Bernoulli(1) missed nodes")
	}
}

func TestExactRandom(t *testing.T) {
	s := NewSet(1000)
	if err := s.ExactRandom(rng.New(4), 100); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 100 {
		t.Fatalf("ExactRandom placed %d, want 100", s.Count())
	}
	// Dense case goes through the reservoir path.
	s2 := NewSet(100)
	if err := s2.ExactRandom(rng.New(5), 90); err != nil {
		t.Fatal(err)
	}
	if s2.Count() != 90 {
		t.Fatalf("ExactRandom placed %d, want 90", s2.Count())
	}
	if err := s2.ExactRandom(rng.New(6), 11); err == nil {
		t.Error("overfull ExactRandom should fail")
	}
}

func TestOracleDeterministicSymmetric(t *testing.T) {
	o := NewOracle(7, 0.25)
	for u := 0; u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			a := o.EdgeFaulty(u, v)
			if b := o.EdgeFaulty(v, u); a != b {
				t.Fatalf("EdgeFaulty not symmetric for (%d,%d)", u, v)
			}
			if a != o.EdgeFaulty(u, v) {
				t.Fatalf("EdgeFaulty not deterministic for (%d,%d)", u, v)
			}
		}
	}
}

func TestOracleRate(t *testing.T) {
	q := 0.09
	o := NewOracle(11, q)
	edges, faulty := 0, 0
	for u := 0; u < 400; u++ {
		for v := u + 1; v < u+20; v++ {
			edges++
			if o.EdgeFaulty(u, v) {
				faulty++
			}
		}
	}
	rate := float64(faulty) / float64(edges)
	if rate < q*0.7 || rate > q*1.3 {
		t.Errorf("edge fault rate = %v, want ~%v", rate, q)
	}
	// Half-edge rate should be ~sqrt(q) = 0.3.
	half := 0
	for u := 0; u < 4000; u++ {
		if o.HalfEdgeFaulty(u, u+1) {
			half++
		}
	}
	hrate := float64(half) / 4000
	if hrate < 0.25 || hrate > 0.35 {
		t.Errorf("half-edge rate = %v, want ~0.3", hrate)
	}
}

func TestOracleZeroQ(t *testing.T) {
	o := NewOracle(1, 0)
	for u := 0; u < 100; u++ {
		if o.EdgeFaulty(u, u+1) || o.HalfEdgeFaulty(u, u+1) {
			t.Fatal("q=0 oracle produced a fault")
		}
	}
}

func TestAdversarialPatternsPlaceExactly(t *testing.T) {
	shape := grid.Shape{40, 40}
	r := rng.New(21)
	for _, p := range AllPatterns() {
		for _, k := range []int{1, 7, 64, 200} {
			s, err := Adversarial(p, shape, k, 5, r.Split(uint64(k)))
			if err != nil {
				t.Fatalf("%v k=%d: %v", p, k, err)
			}
			if s.Count() != k {
				t.Fatalf("%v k=%d placed %d", p, k, s.Count())
			}
			if s.Len() != shape.Size() {
				t.Fatalf("%v universe size wrong", p)
			}
		}
	}
}

// TestAdversarialIntoReusedSet: placing every pattern into one set,
// cleared between bursts, gives exactly Adversarial's faults from the
// same stream; a set that is not empty or spans another universe is
// rejected.
func TestAdversarialIntoReusedSet(t *testing.T) {
	shape := grid.Shape{40, 40}
	burst := NewSet(shape.Size())
	for _, p := range AllPatterns() {
		for _, k := range []int{1, 12, 200} {
			want, err := Adversarial(p, shape, k, 5, rng.NewPCG(uint64(k), 3))
			if err != nil {
				t.Fatalf("%v k=%d: %v", p, k, err)
			}
			burst.Clear()
			if err := AdversarialInto(burst, p, shape, k, 5, rng.NewPCG(uint64(k), 3)); err != nil {
				t.Fatalf("%v k=%d into a reused set: %v", p, k, err)
			}
			if !slices.Equal(burst.Slice(), want.Slice()) {
				t.Fatalf("%v k=%d: reused set holds %v, Adversarial placed %v", p, k, burst.Slice(), want.Slice())
			}
		}
	}
	if err := AdversarialInto(burst, Uniform, shape, 3, 5, rng.New(1)); !fterr.Is(err, fterr.Invalid) {
		t.Errorf("non-empty target: err = %v, want an invalid-argument error", err)
	}
	if err := AdversarialInto(NewSet(10), Uniform, shape, 3, 5, rng.New(1)); !fterr.Is(err, fterr.Invalid) {
		t.Errorf("target over another universe: err = %v, want an invalid-argument error", err)
	}
}

func TestAdversarialTooMany(t *testing.T) {
	if _, err := Adversarial(Uniform, grid.Shape{3, 3}, 10, 2, rng.New(1)); err == nil {
		t.Error("placing 10 faults on 9 nodes should fail")
	}
}

func TestRowSweepConcentration(t *testing.T) {
	shape := grid.Shape{30, 30}
	s, err := Adversarial(RowSweep, shape, 45, 4, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int]int{}
	s.ForEach(func(idx int) { rows[idx/30]++ })
	if len(rows) > 2 {
		t.Errorf("RowSweep spread over %d rows, want <= 2", len(rows))
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range AllPatterns() {
		if p.String() == "" {
			t.Errorf("pattern %d has empty name", int(p))
		}
	}
	if Pattern(99).String() != "pattern(99)" {
		t.Error("unknown pattern string wrong")
	}
}

// BenchmarkSetWalk times the sparse walks — ForEach, Nth and Clear
// (refilling the set each time) — on 20 faults at the B² host's universe
// (279,936 nodes) and the d=3 host's (9,437,184 nodes): the cost the
// occupancy bitmap makes proportional to the faults, not the host.
func BenchmarkSetWalk(b *testing.B) {
	for _, u := range []struct {
		name string
		n    int
	}{{"B2", 279936}, {"D3", 9437184}} {
		s := NewSet(u.n)
		if err := s.ExactRandom(rng.NewPCG(5, 9), 20); err != nil {
			b.Fatal(err)
		}
		nodes := s.Slice()
		b.Run(u.name+"/ForEach", func(b *testing.B) {
			b.ReportAllocs()
			visits := 0
			for b.Loop() {
				s.ForEach(func(int) { visits++ })
			}
			if visits == 0 {
				b.Fatal("ForEach visited nothing")
			}
		})
		b.Run(u.name+"/Nth", func(b *testing.B) {
			b.ReportAllocs()
			k := 0
			for b.Loop() {
				s.Nth(k)
				k = (k + 1) % len(nodes)
			}
		})
		b.Run(u.name+"/Clear", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				s.Clear()
				for _, v := range nodes {
					s.Add(v)
				}
			}
		})
	}
}
