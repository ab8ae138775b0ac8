package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"ftnet/internal/rng"
)

// randomSnapshot builds a structurally valid snapshot with a plausible
// column-preserving map plus a sprinkle of template rewrites.
func randomSnapshot(r *rng.PCG, side, dims int) *Snapshot {
	nc := numCols(side, dims)
	n := side * nc
	m := make([]int, n)
	for j := 0; j < side; j++ {
		row := r.Intn(2 * side)
		for z := 0; z < nc; z++ {
			m[j*nc+z] = row*nc + z
		}
	}
	for i := 0; i < n/7; i++ {
		m[r.Intn(n)] = r.Intn(4 * n)
	}
	var faults []int
	next := 0
	for r.Intn(3) != 0 && next < 4*n {
		next += 1 + r.Intn(n)
		faults = append(faults, next)
	}
	if faults == nil {
		faults = []int{}
	}
	var edges [][2]int
	u, v := 0, 0
	for r.Intn(3) != 0 {
		if len(edges) > 0 && r.Intn(2) == 0 {
			v += 1 + r.Intn(4) // same u, strictly larger v
		} else {
			if len(edges) > 0 {
				u += 1 + r.Intn(3)
			} else {
				u = r.Intn(3)
			}
			v = u + 1 + r.Intn(4)
		}
		edges = append(edges, [2]int{u, v})
	}
	return &Snapshot{
		Topology:   "main",
		Generation: int64(r.Intn(1000)),
		Side:       side,
		Dims:       dims,
		Faults:     faults,
		Edges:      edges,
		Map:        m,
		Checksum:   Checksum(m),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := rng.NewPCG(7, 1)
	for _, geo := range []struct{ side, dims int }{
		{4, 1}, {4, 2}, {9, 2}, {5, 3}, {64, 2},
	} {
		for trial := 0; trial < 20; trial++ {
			s := randomSnapshot(r, geo.side, geo.dims)
			b, err := EncodeSnapshot(s)
			if err != nil {
				t.Fatalf("%d^%d encode: %v", geo.side, geo.dims, err)
			}
			if k, err := Kind(b); err != nil || k != KindFull {
				t.Fatalf("Kind = %d, %v; want KindFull", k, err)
			}
			got, err := DecodeSnapshot(b)
			if err != nil {
				t.Fatalf("%d^%d decode: %v", geo.side, geo.dims, err)
			}
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("%d^%d round trip mismatch:\n got %+v\nwant %+v", geo.side, geo.dims, got, s)
			}
			b2, err := EncodeSnapshot(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if string(b2) != string(b) {
				t.Fatalf("re-encode is not bit-identical")
			}
		}
	}
}

func TestDeltaRoundTripAndApply(t *testing.T) {
	r := rng.NewPCG(11, 2)
	base := randomSnapshot(r, 8, 2)
	nc := numCols(base.Side, base.Dims)

	head := append([]int(nil), base.Map...)
	changed := []int{1, 3, 6}
	var cols []ColumnUpdate
	for _, c := range changed {
		vals := make([]int, base.Side)
		for j := range vals {
			head[j*nc+c] = r.Intn(4 * len(head))
			vals[j] = head[j*nc+c]
		}
		cols = append(cols, ColumnUpdate{Col: c, Vals: vals})
	}
	d := &Delta{
		Topology:       base.Topology,
		FromGeneration: base.Generation,
		ToGeneration:   base.Generation + 3,
		Side:           base.Side,
		Dims:           base.Dims,
		Faults:         []int{2, 9},
		Edges:          [][2]int{{0, 1}, {0, 7}, {4, 5}},
		Cols:           cols,
		Checksum:       Checksum(head),
	}

	b, err := EncodeDelta(d)
	if err != nil {
		t.Fatalf("encode delta: %v", err)
	}
	if k, err := Kind(b); err != nil || k != KindDelta {
		t.Fatalf("Kind = %d, %v; want KindDelta", k, err)
	}
	got, err := DecodeDelta(b)
	if err != nil {
		t.Fatalf("decode delta: %v", err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("delta round trip mismatch:\n got %+v\nwant %+v", got, d)
	}

	patched, err := Apply(base, got)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if patched.Generation != d.ToGeneration {
		t.Fatalf("patched generation = %d, want %d", patched.Generation, d.ToGeneration)
	}
	if !reflect.DeepEqual(patched.Map, head) {
		t.Fatalf("patched map differs from head")
	}
	if !reflect.DeepEqual(patched.Faults, d.Faults) {
		t.Fatalf("patched faults = %v, want %v", patched.Faults, d.Faults)
	}
	if !reflect.DeepEqual(patched.Edges, d.Edges) {
		t.Fatalf("patched edges = %v, want %v", patched.Edges, d.Edges)
	}
	// base must be untouched.
	if base.Map[0*nc+1] == head[0*nc+1] && len(changed) > 0 {
		// possible but astronomically unlikely with random rewrites; the
		// real assertion is below
		t.Log("column 1 unchanged by rewrite (coincidence)")
	}
	if base.Generation == patched.Generation {
		t.Fatalf("Apply mutated base")
	}
}

func TestApplyMismatch(t *testing.T) {
	r := rng.NewPCG(13, 3)
	base := randomSnapshot(r, 6, 2)
	okDelta := func() *Delta {
		return &Delta{
			Topology:       base.Topology,
			FromGeneration: base.Generation,
			ToGeneration:   base.Generation + 1,
			Side:           base.Side,
			Dims:           base.Dims,
			Faults:         []int{},
			Cols:           nil,
			Checksum:       base.Checksum,
		}
	}

	if _, err := Apply(base, okDelta()); err != nil {
		t.Fatalf("empty delta should apply: %v", err)
	}

	cases := map[string]func(*Delta){
		"wrong topology":   func(d *Delta) { d.Topology = "other" },
		"wrong side":       func(d *Delta) { d.Side = base.Side + 1 },
		"wrong generation": func(d *Delta) { d.FromGeneration++ },
		"wrong checksum":   func(d *Delta) { d.Checksum++ },
	}
	for name, corrupt := range cases {
		d := okDelta()
		corrupt(d)
		if _, err := Apply(base, d); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: err = %v, want ErrMismatch", name, err)
		}
	}
}

// TestDecodeTruncations chops a valid payload at every length; each
// prefix must fail with ErrCorrupt (strict framing: no prefix of a
// valid message is itself valid).
func TestDecodeTruncations(t *testing.T) {
	r := rng.NewPCG(17, 4)
	s := randomSnapshot(r, 6, 2)
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := DecodeSnapshot(b[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrCorrupt", n, len(b), err)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := DecodeSnapshot(append(append([]byte(nil), b...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("FTW1"),
		[]byte("XXXXXXXXXXXX"),
		{'F', 'T', 'W', '1', 99, 0}, // unknown kind
		{'F', 'T', 'W', '1', KindFull, 0xff, 0xff, 0xff}, // huge topology length
	}
	for i, b := range cases {
		if _, err := DecodeSnapshot(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: DecodeSnapshot err = %v, want ErrCorrupt", i, err)
		}
		if _, err := DecodeDelta(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: DecodeDelta err = %v, want ErrCorrupt", i, err)
		}
	}
	// Declared map length far beyond the payload must fail before
	// allocating: side=2^20, dims=16 passes geometry caps but the
	// remaining-bytes check rejects it instantly.
	huge := []byte{'F', 'T', 'W', '1', KindFull, 0}
	huge = append(huge, 5)                  // generation
	huge = append(huge, 0x80, 0x80, 0x40)   // side = 1<<20
	huge = append(huge, 16)                 // dims
	huge = append(huge, make([]byte, 8)...) // checksum
	huge = append(huge, 0)                  // faults
	if _, err := DecodeSnapshot(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge declared map: err = %v, want ErrCorrupt", err)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	good := &Snapshot{Topology: "t", Side: 2, Dims: 2, Faults: []int{}, Map: []int{0, 1, 2, 3}}
	if _, err := EncodeSnapshot(good); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"zero side", func(s *Snapshot) { s.Side = 0 }},
		{"dims too big", func(s *Snapshot) { s.Dims = maxDims + 1 }},
		{"map length", func(s *Snapshot) { s.Map = s.Map[:3] }},
		{"negative entry", func(s *Snapshot) { s.Map = []int{0, 1, -2, 3} }},
		{"unsorted faults", func(s *Snapshot) { s.Faults = []int{5, 5} }},
		{"negative generation", func(s *Snapshot) { s.Generation = -1 }},
		{"self-loop edge", func(s *Snapshot) { s.Edges = [][2]int{{2, 2}} }},
		{"reversed edge", func(s *Snapshot) { s.Edges = [][2]int{{3, 1}} }},
		{"negative edge endpoint", func(s *Snapshot) { s.Edges = [][2]int{{-1, 2}} }},
		{"duplicate edge", func(s *Snapshot) { s.Edges = [][2]int{{1, 2}, {1, 2}} }},
		{"unsorted edges", func(s *Snapshot) { s.Edges = [][2]int{{1, 4}, {1, 2}} }},
	}
	for _, tc := range bad {
		s := *good
		s.Map = append([]int(nil), good.Map...)
		tc.mut(&s)
		if _, err := EncodeSnapshot(&s); err == nil {
			t.Errorf("%s: encode accepted invalid snapshot", tc.name)
		}
	}

	d := &Delta{Topology: "t", Side: 2, Dims: 2, FromGeneration: 2, ToGeneration: 1, Faults: []int{}}
	if _, err := EncodeDelta(d); err == nil {
		t.Error("backwards delta accepted")
	}
	d.ToGeneration = 3
	d.Cols = []ColumnUpdate{{Col: 0, Vals: []int{1}}}
	if _, err := EncodeDelta(d); err == nil {
		t.Error("short column accepted")
	}
	d.Cols = []ColumnUpdate{{Col: 2, Vals: []int{1, 2}}}
	if _, err := EncodeDelta(d); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestChecksumMatchesKnownFNV(t *testing.T) {
	// FNV-1a offset basis for the empty input.
	if got := Checksum(nil); got != 0xcbf29ce484222325 {
		t.Fatalf("Checksum(nil) = %#x, want FNV-1a offset basis", got)
	}
	if Checksum([]int{1}) == Checksum([]int{2}) {
		t.Fatal("distinct maps collide trivially")
	}
	if Checksum([]int{math.MaxInt32}) == Checksum(nil) {
		t.Fatal("non-empty map hashes like empty")
	}
}
