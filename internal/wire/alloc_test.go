package wire

import "testing"

// TestHotPathAllocs is the runtime counterpart of the hotpath analyzer
// (internal/analysis/hotpath) for the //ftnet:hotpath-annotated wire
// functions: with a pre-sized destination buffer the encode inner
// loops must run allocation-free, and so must Checksum.
func TestHotPathAllocs(t *testing.T) {
	faults := []int{1, 5, 9, 42, 100}
	edges := [][2]int{{0, 1}, {0, 9}, {3, 4}, {3, 7}}
	vals := make([]int, 256)
	for i := range vals {
		vals[i] = (i * 7) % 97
	}
	buf := make([]byte, 0, 1<<14)

	check := func(name string, fn func(b []byte) ([]byte, error)) {
		t.Helper()
		if a := testing.AllocsPerRun(100, func() {
			b, err := fn(buf[:0])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			buf = b[:0]
		}); a > 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}

	check("appendFaults", func(b []byte) ([]byte, error) { return appendFaults(b, faults) })
	check("appendEdges", func(b []byte) ([]byte, error) { return appendEdges(b, edges) })
	check("appendVals", func(b []byte) ([]byte, error) { return appendVals(b, vals) })

	if a := testing.AllocsPerRun(100, func() { _ = Checksum(vals) }); a > 0 {
		t.Errorf("Checksum: %v allocs/op, want 0", a)
	}
}
