package core

import (
	"errors"
	"testing"

	"ftnet/internal/fault"
)

// FuzzSession drives the bidirectional delta-evaluation engine with a
// fuzzer-chosen add/remove script on a small instance and pins every
// reached state against the dense pipeline. The contract: whatever the
// mutation order — including mutations applied while the session holds
// an unhealthy (failed) state, and map-free Checks in any mix with
// Evals and Resets — Eval is bit-identical to a from-scratch dense
// evaluation, Check classifies like it, errors stay typed, and nothing
// panics. Every script ends with an Eval, whose map sync catches up on
// every Check before it. Seed corpus runs under plain `go test`; CI
// explores with `go test -fuzz FuzzSession -fuzztime 30s ./internal/core`.
func FuzzSession(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 200, 100, 1, 10, 20})
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 1, 1, 2, 1, 5, 6})
	f.Add([]byte{0, 128, 128, 2, 0, 0, 0, 128, 129, 3, 0, 0})
	// Checks across a Reset before the final Eval.
	f.Add([]byte{0, 10, 20, 6, 0, 0, 3, 0, 0, 0, 200, 100, 6, 0, 0, 1, 10, 20, 6, 0, 0})
	f.Add([]byte{0, 128, 128, 2, 0, 0, 0, 60, 90, 6, 0, 0, 3, 0, 0, 1, 128, 128, 6, 0, 0, 0, 5, 6})
	p := Params{D: 2, W: 4, Pitch: 16, Scale: 1}
	g, err := NewGraph(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 60 {
			raw = raw[:60] // a handful of ops is enough to hit every transition
		}
		sc := NewScratch()
		ses := g.NewSession(sc, ExtractOptions{})
		faults := fault.NewSet(g.NumNodes())
		delta := make([]int, 0, 1)
		// Interpret byte triples as (op, row seed, column seed): op&3
		// selects add / remove / step-now / reset, and a step-now with
		// bit 2 of op set is a Check instead of an Eval.
		for i := 0; i+2 < len(raw); i += 3 {
			op := raw[i] & 3
			u := g.NodeIndex(int(raw[i+1])*g.P.M()/256, int(raw[i+2])*g.P.N()/256)
			switch op {
			case 0:
				if !faults.Has(u) {
					faults.Add(u)
					ses.NoteAdded(append(delta[:0], u))
				}
			case 1:
				if faults.Has(u) {
					faults.Remove(u)
					ses.NoteCleared(append(delta[:0], u))
				}
			case 2:
				if raw[i]&4 != 0 {
					checkSessionClass(t, g, ses, faults, nil, "fuzz")
				} else {
					fuzzEvalBoth(t, g, ses, faults)
				}
			case 3:
				ses.Reset()
			}
		}
		fuzzEvalBoth(t, g, ses, faults)
	})
}

// fuzzEvalBoth is the fuzz-friendly state comparison: outcome class and
// embedding must match the dense pipeline exactly.
func fuzzEvalBoth(t *testing.T, g *Graph, ses *Session, faults *fault.Set) {
	t.Helper()
	resIncr, errIncr := ses.Eval(faults)
	resDense, errDense := g.ContainTorus(faults, ExtractOptions{Dense: true})
	if (errIncr == nil) != (errDense == nil) {
		t.Fatalf("outcome mismatch: session err=%v, dense err=%v", errIncr, errDense)
	}
	if errIncr != nil {
		var us, ud *UnhealthyError
		if !errors.As(errIncr, &us) || !errors.As(errDense, &ud) {
			t.Fatalf("untyped error: session %v, dense %v", errIncr, errDense)
		}
		return
	}
	for i := range resDense.Embedding.Map {
		if resDense.Embedding.Map[i] != resIncr.Embedding.Map[i] {
			t.Fatalf("embedding differs at guest node %d: dense %d, session %d",
				i, resDense.Embedding.Map[i], resIncr.Embedding.Map[i])
		}
	}
}

// FuzzPlacement drives band placement with fuzzer-chosen fault positions
// on a fixed small instance. The contract: placement either succeeds with
// a valid all-masking family or fails with a typed UnhealthyError — it
// never panics, never returns an untyped error, never leaves a fault
// unmasked. Seed corpus runs under plain `go test`; explore with
// `go test -fuzz FuzzPlacement -run FuzzPlacement ./internal/core`.
func FuzzPlacement(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0, 0, 255, 255})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80})
	p := Params{D: 2, W: 4, Pitch: 16, Scale: 1}
	g, err := NewGraph(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64] // bound fault counts; beyond that all unhealthy anyway
		}
		faults := fault.NewSet(g.NumNodes())
		// Interpret consecutive byte pairs as (row, column) seeds spread
		// over the host.
		for i := 0; i+1 < len(raw); i += 2 {
			row := int(raw[i]) * g.P.M() / 256
			col := int(raw[i+1]) * g.P.N() / 256
			faults.Add(g.NodeIndex(row, col))
		}
		bs, _, err := g.PlaceBands(faults)
		if err != nil {
			var ue *UnhealthyError
			if !errors.As(err, &ue) {
				t.Fatalf("untyped placement error: %v", err)
			}
			return
		}
		if err := bs.Validate(); err != nil {
			t.Fatalf("invalid family: %v", err)
		}
		faults.ForEach(func(idx int) {
			i, z := g.NodeOf(idx)
			if bs.MaskedBy(z, i) < 0 {
				t.Fatalf("fault (%d,%d) unmasked", i, z)
			}
		})
		// And the extraction must go through end to end.
		if _, err := g.Extract(bs, ExtractOptions{}); err != nil {
			t.Fatalf("extraction after successful placement: %v", err)
		}
	})
}
