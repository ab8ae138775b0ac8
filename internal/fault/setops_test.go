package fault

import (
	"slices"
	"testing"

	"ftnet/internal/rng"
)

// FuzzSetOps drives a Set through a fuzzer-chosen script of Add, Remove,
// Clear, BernoulliRecord, RemoveRecord, Extend, Clone and Nth, and after
// every operation compares it with a map model: Count, Has on every
// node, ForEach's order and content, Nth(k) for every k, and the
// occupancy bitmap (exactly the nonzero words marked). The universes end
// off both a word and a bitmap-word boundary, and sit on both sides of
// one bitmap word (64 set words). The first byte picks the universe and
// the rng stream; each later byte pair is (op, argument). Seed corpus
// runs under plain `go test`; CI explores with
// `go test -fuzz=FuzzSetOps -fuzztime=10s -run '^$' ./internal/fault`.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 70, 0, 199, 1, 70, 7, 1, 2, 0})
	f.Add([]byte{1, 3, 40, 0, 255, 4, 90, 7, 200, 6, 0, 1, 17, 2, 0, 0, 5})
	f.Add([]byte{2, 5, 30, 3, 10, 4, 255, 0, 64, 0, 128, 7, 1})
	f.Add([]byte{3, 3, 255, 4, 128, 6, 1, 4, 255, 3, 20, 2, 0, 7, 0})
	f.Add([]byte{4, 0, 63, 0, 64, 0, 127, 1, 64, 7, 2, 1, 63, 1, 127, 7, 0})
	sizes := []int{200, 64*64 + 5, 64 * 64, 64*64 - 5, 1}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 121 {
			raw = raw[:121] // sixty ops reach every transition
		}
		n := sizes[int(raw[0])%len(sizes)]
		r := rng.NewPCG(uint64(raw[0]), 23)
		s := NewSet(n)
		model := map[int]bool{}
		// node spreads an argument byte over the universe, hitting both
		// ends and the word boundaries near them.
		node := func(a byte) int { return int(a) * (n - 1) / 255 }
		// rate maps an argument byte to a probability, cubed so most
		// draws stay sparse; 255 is exactly 1, the full-set branches.
		rate := func(a byte) float64 {
			x := float64(a) / 255
			return x * x * x
		}
		for i := 1; i+1 < len(raw); i += 2 {
			op, a := raw[i], raw[i+1]
			switch op % 8 {
			case 0:
				s.Add(node(a))
				model[node(a)] = true
			case 1:
				s.Remove(node(a))
				delete(model, node(a))
			case 2:
				s.Clear()
				clear(model)
			case 3:
				added := s.BernoulliRecord(r, rate(a), nil)
				recordNew(t, "BernoulliRecord", added, model, true)
			case 4:
				removed := s.RemoveRecord(r, rate(a), nil)
				recordNew(t, "RemoveRecord", removed, model, false)
			case 5:
				from := rate(a) / 2
				added, err := s.Extend(r, from, rate(a), nil)
				if err != nil {
					t.Fatalf("Extend(%v, %v): %v", from, rate(a), err)
				}
				recordNew(t, "Extend", added, model, true)
			case 6:
				// The script continues on the clone; the original must not
				// see the clone's mutations.
				c := s.Clone()
				v := node(a)
				had := s.Has(v)
				c.Add(v)
				c.Remove(v)
				if s.Has(v) != had {
					t.Fatalf("mutating the clone at node %d changed the original", v)
				}
				if model[v] {
					c.Add(v)
				}
				s = c
			case 7:
				if s.Count() > 0 {
					k := int(a) % s.Count()
					if got, want := s.Nth(k), sortedKeys(model)[k]; got != want {
						t.Fatalf("Nth(%d) = %d, want %d", k, got, want)
					}
				}
			}
			checkAgainstModel(t, s, model)
		}
	})
}

// recordNew checks a recorded delta — strictly increasing, and every
// node new to the model (added) or in it (removed) — and applies it to
// the model.
func recordNew(t *testing.T, op string, delta []int, model map[int]bool, added bool) {
	t.Helper()
	for j, v := range delta {
		if j > 0 && v <= delta[j-1] {
			t.Fatalf("%s delta %v is not strictly increasing", op, delta)
		}
		if model[v] == added {
			t.Fatalf("%s recorded node %d, which was already in the wanted state", op, v)
		}
		if added {
			model[v] = true
		} else {
			delete(model, v)
		}
	}
}

// checkAgainstModel fails t unless s holds exactly the model's nodes, its
// walks see them in increasing order, and its bitmap marks exactly the
// nonzero words.
func checkAgainstModel(t *testing.T, s *Set, model map[int]bool) {
	t.Helper()
	want := sortedKeys(model)
	if s.Count() != len(want) {
		t.Fatalf("Count = %d, model holds %d", s.Count(), len(want))
	}
	for i := 0; i < s.Len(); i++ {
		if s.Has(i) != model[i] {
			t.Fatalf("Has(%d) = %v, model %v", i, s.Has(i), model[i])
		}
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !slices.Equal(got, want) {
		k := 0
		for k < min(len(got), len(want)) && got[k] == want[k] {
			k++
		}
		t.Fatalf("ForEach visits %d nodes, model %d; they first differ at position %d", len(got), len(want), k)
	}
	for k, v := range want {
		if s.Nth(k) != v {
			t.Fatalf("Nth(%d) = %d, want %d", k, s.Nth(k), v)
		}
	}
	checkOccupancy(t, s)
}

func sortedKeys(model map[int]bool) []int {
	out := make([]int, 0, len(model))
	for v := range model {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
