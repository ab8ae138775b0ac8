package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed, different streams")
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 100; i++ {
		if New(42).Split(uint64(i)).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(1)
	s1 := r.Split(1)
	s2 := r.Split(2)
	if s1.Uint64() == s2.Uint64() {
		t.Error("splits with different keys produced identical output")
	}
	// Split must not perturb the parent.
	r2 := New(1)
	r2.Split(1)
	r2.Split(2)
	a, b := New(1), r2
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split perturbed parent stream")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("Intn(10) bucket %d has %d/10000 hits (expect ~1000)", v, c)
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / 10000; mean < 0.48 || mean > 0.52 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(5)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm invalid at %d", v)
		}
		seen[v] = true
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	p := 0.01
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / float64(n)
	want := (1 - p) / p
	if math.Abs(mean-want)/want > 0.1 {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestHash64Sensitivity(t *testing.T) {
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Error("Hash64 should be order sensitive")
	}
	if Hash64(1) == Hash64(1, 0) {
		t.Error("Hash64 should be length sensitive")
	}
}

func TestHashFloatRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		v := HashFloat(i, i*3)
		if v < 0 || v >= 1 {
			t.Fatalf("HashFloat out of range: %v", v)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(19)
	a := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	seen := make([]bool, 8)
	for _, v := range a {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Shuffle lost element %d", i)
		}
	}
}
