package rng

import (
	"math"
	"testing"
)

func TestPCGDeterministic(t *testing.T) {
	a := NewPCG(42, 7)
	b := NewPCG(42, 7)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestPCGStreamsDiffer(t *testing.T) {
	// Same seed on adjacent streams, and adjacent seeds on the same
	// stream, must give unrelated sequences.
	pairs := [][2]*PCG{
		{NewPCG(42, 0), NewPCG(42, 1)},
		{NewPCG(42, 3), NewPCG(43, 3)},
	}
	for pi, p := range pairs {
		same := 0
		for i := 0; i < 1000; i++ {
			if p[0].Uint64() == p[1].Uint64() {
				same++
			}
		}
		if same > 2 {
			t.Fatalf("pair %d: %d/1000 identical draws between streams", pi, same)
		}
	}
}

func TestPCGUniformity(t *testing.T) {
	// Coarse chi-squared-ish check: 16 buckets over Float64.
	p := NewPCG(9, 1)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		buckets[int(f*16)]++
	}
	want := float64(n) / 16
	for b, c := range buckets {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d: %d draws, want ~%.0f", b, c, want)
		}
	}
}

func TestPCGIntnBounds(t *testing.T) {
	p := NewPCG(1, 2)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		seen := make(map[int]bool)
		for i := 0; i < 50*n; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) hit only %d values", n, len(seen))
		}
	}
}

func TestPCGMatchesRandDistributions(t *testing.T) {
	// The shared helpers must behave identically through both
	// generators; compare Bernoulli acceptance rates loosely.
	p := NewPCG(5, 5)
	r := New(5)
	const n = 100000
	cp, cr := 0, 0
	for i := 0; i < n; i++ {
		if p.Bernoulli(0.3) {
			cp++
		}
		if r.Bernoulli(0.3) {
			cr++
		}
	}
	if math.Abs(float64(cp)-0.3*n) > 4*math.Sqrt(0.21*n) {
		t.Fatalf("PCG Bernoulli rate off: %d/%d", cp, n)
	}
	if math.Abs(float64(cp-cr)) > 8*math.Sqrt(0.21*n) {
		t.Fatalf("PCG and Rand rates disagree: %d vs %d", cp, cr)
	}
}
