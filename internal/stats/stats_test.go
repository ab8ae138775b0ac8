package stats

import (
	"strings"
	"testing"
)

func TestNewResult(t *testing.T) {
	res := NewResult(75, 100)
	if res.Trials != 100 || res.Successes != 75 {
		t.Errorf("got %+v", res)
	}
	if res.Rate != 0.75 {
		t.Errorf("Rate = %v", res.Rate)
	}
	if res.Lo >= res.Rate || res.Hi <= res.Rate {
		t.Errorf("interval [%v,%v] does not bracket %v", res.Lo, res.Hi, res.Rate)
	}
	if w := res.Width(); w != res.Hi-res.Lo || w <= 0 {
		t.Errorf("Width = %v", w)
	}
	if zero := NewResult(0, 0); zero.Rate != 0 || zero.Lo != 0 || zero.Hi != 1 {
		t.Errorf("NewResult(0,0) = %+v", zero)
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(95, 100, 1.96)
	if lo < 0.87 || lo > 0.93 || hi < 0.97 || hi > 1.0 {
		t.Errorf("Wilson(95,100) = [%v, %v]", lo, hi)
	}
	lo, hi = Wilson(0, 10, 1.96)
	if lo != 0 || hi < 0.2 || hi > 0.4 {
		t.Errorf("Wilson(0,10) = [%v, %v]", lo, hi)
	}
	lo, hi = Wilson(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("Wilson(0,0) = [%v, %v]", lo, hi)
	}
}

func TestTable(t *testing.T) {
	var sb strings.Builder
	tab := NewTable(&sb, "n", "rate")
	tab.Row(100, 0.5)
	tab.Row(2000, 0.125)
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "n") || !strings.Contains(out, "2000") {
		t.Errorf("table output wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestBinomTail(t *testing.T) {
	// P(X >= 0) = 1; P(X >= n+1) = 0.
	if BinomTail(10, 0.5, 0) != 1 {
		t.Error("P(X>=0) != 1")
	}
	if BinomTail(10, 0.5, 11) != 0 {
		t.Error("P(X>=n+1) != 0")
	}
	// Degenerate probabilities.
	if BinomTail(10, 0, 1) != 0 || BinomTail(10, 1, 10) != 1 {
		t.Error("degenerate p wrong")
	}
	// Symmetric binomial: P(X >= 5 | n=10, p=0.5) ~ 0.623.
	got := BinomTail(10, 0.5, 5)
	if got < 0.62 || got > 0.63 {
		t.Errorf("BinomTail(10,0.5,5) = %v, want ~0.623", got)
	}
	// Compare against a direct sum for a few cases.
	direct := func(n int, p float64, k int) float64 {
		total := 0.0
		for i := k; i <= n; i++ {
			c := 1.0
			for j := 0; j < i; j++ {
				c = c * float64(n-j) / float64(j+1)
			}
			prob := c
			for j := 0; j < i; j++ {
				prob *= p
			}
			for j := 0; j < n-i; j++ {
				prob *= 1 - p
			}
			total += prob
		}
		return total
	}
	for _, c := range []struct {
		n int
		p float64
		k int
	}{{20, 0.1, 4}, {15, 0.9, 12}, {8, 0.3, 1}} {
		want := direct(c.n, c.p, c.k)
		got := BinomTail(c.n, c.p, c.k)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("BinomTail(%d,%v,%d) = %v, want %v", c.n, c.p, c.k, got, want)
		}
	}
}

func TestBinomTailMonotone(t *testing.T) {
	prev := 1.1
	for k := 0; k <= 30; k++ {
		v := BinomTail(30, 0.4, k)
		if v > prev+1e-12 {
			t.Fatalf("tail not monotone at k=%d: %v > %v", k, v, prev)
		}
		prev = v
	}
}

func TestResultString(t *testing.T) {
	r := Result{Trials: 10, Successes: 5, Rate: 0.5, Lo: 0.2, Hi: 0.8}
	if !strings.Contains(r.String(), "5/10") {
		t.Errorf("String = %q", r.String())
	}
}
