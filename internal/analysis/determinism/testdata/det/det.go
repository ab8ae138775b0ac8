// Package det seeds determinism violations for the golden harness:
// every want comment pins the exact rule the construct on its line
// trips, and the constructs without wants pin the rule's negative space
// (integer accumulation, keyed writes, collect-then-sort).
package det

import (
	"math/rand" // want "import of math/rand in an engine package"
	"sort"
	"time"
)

// The import line above is the violation; referencing the package does
// not add another.
var _ = rand.Int

// clock feeds wall-clock inputs into engine state.
func clock() (time.Time, time.Duration) {
	start := time.Now()    // want "time.Now in an engine package"
	d := time.Since(start) // want "time.Since in an engine package"
	return start, d
}

// mapLeaks exercises every range-over-map rule in one loop.
func mapLeaks(m map[string]int, ch chan int) ([]string, []int, float64, string, int, int) {
	var keys []string
	var sorted []int
	var fsum float64
	var cat string
	isum := 0
	last := 0
	counts := map[string]int{}
	for k, v := range m {
		keys = append(keys, k) // want "append to \"keys\" inside range over a map without a subsequent sort"
		ch <- v                // want "channel send inside range over a map"
		fsum += float64(v)     // want "float accumulation into \"fsum\""
		cat += k               // want "string concatenation into \"cat\""
		last = v               // want "write to \"last\" inside range over a map depends on iteration order"
		isum += v              // integer accumulation commutes: no finding
		counts[k] = v          // keyed write, distinct keys commute: no finding
		sorted = append(sorted, v)
		local := v * 2 // loop-local state cannot leak order: no finding
		_ = local
	}
	sort.Ints(sorted) // launders the append to sorted above
	return keys, sorted, fsum, cat, isum, last
}

// closureScope pins that a sort inside a closure does not launder an
// append in the enclosing function.
func closureScope(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k) // want "append to \"out\" inside range over a map without a subsequent sort"
	}
	_ = func() {
		sort.Ints(out) // a different scope: does not launder the loop above
	}
	return out
}

// fanOut starts a goroutine: only the trial pool may.
func fanOut() {
	done := make(chan struct{})
	go close(done) // want "go statement in an engine package"
	<-done
}
