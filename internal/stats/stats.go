// Package stats provides the statistics the experiment suite needs:
// Wilson score confidence intervals for survival probabilities, binomial
// tail bounds for supernode sizing, summary helpers, and an aligned
// table writer for the paper-style result tables.
//
// Trial execution lives in internal/parallel: its engine runs trials
// across a worker pool with deterministic per-trial PCG streams and
// aggregates outcomes into the Result type defined here.
package stats

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"ftnet/internal/fterr"
)

// Outcome classifies one Monte-Carlo trial.
type Outcome int

const (
	// Success: the construction survived (embedding verified).
	Success Outcome = iota
	// Failure: the construction did not survive (an expected event, e.g.
	// an unhealthy fault pattern).
	Failure
)

// Classify maps a pipeline error to a trial outcome: nil is a Success,
// an fterr.NotTolerated error (the fault pattern exceeded what the
// construction tolerates) a Failure, and any other error a Failure
// returned with the error, since a trial error is a bug that aborts the
// run.
func Classify(err error) (Outcome, error) {
	switch {
	case err == nil:
		return Success, nil
	case fterr.Is(err, fterr.NotTolerated):
		return Failure, nil
	}
	return Failure, err
}

// Result summarizes a Monte-Carlo run.
type Result struct {
	Trials    int
	Successes int
	Rate      float64 // Successes / Trials
	Lo, Hi    float64 // 95% Wilson interval
}

func (r Result) String() string {
	return fmt.Sprintf("%d/%d = %.3f [%.3f, %.3f]", r.Successes, r.Trials, r.Rate, r.Lo, r.Hi)
}

// NewResult builds a Result from raw counts, filling in the rate and the
// 95% Wilson interval.
func NewResult(successes, trials int) Result {
	res := Result{Trials: trials, Successes: successes}
	if trials > 0 {
		res.Rate = float64(successes) / float64(trials)
	}
	res.Lo, res.Hi = Wilson(successes, trials, 1.96)
	return res
}

// Width returns the width of the confidence interval; the parallel
// engine's early-stopping rule compares it against a target.
func (r Result) Width() float64 { return r.Hi - r.Lo }

// Wilson returns the Wilson score interval for a binomial proportion.
func Wilson(successes, trials int, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Table writes aligned experiment tables.
type Table struct {
	tw *tabwriter.Writer
}

// NewTable starts a table with the given header cells.
func NewTable(w io.Writer, headers ...string) *Table {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	t := &Table{tw: tw}
	t.Row(toAny(headers)...)
	return t
}

// Row appends one row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprintf(t.tw, "%v", c)
	}
	fmt.Fprintln(t.tw)
}

// Flush renders the table.
func (t *Table) Flush() error { return t.tw.Flush() }

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// BinomTail returns P(X >= k) for X ~ Binomial(n, p), computed in
// log-space for numerical stability. Used to size supernodes so the
// expected number of bad supernodes stays below the base construction's
// tolerance (the explicit finite-scale form of Theorem 1's constant
// tuning).
func BinomTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	total := 0.0
	for i := k; i <= n; i++ {
		total += math.Exp(lchoose(n, i) + float64(i)*lp + float64(n-i)*lq)
	}
	if total > 1 {
		total = 1
	}
	return total
}

func lchoose(n, k int) float64 {
	return lgamma(float64(n+1)) - lgamma(float64(k+1)) - lgamma(float64(n-k+1))
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
