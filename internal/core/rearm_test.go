package core

import (
	"errors"
	"fmt"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// Regression suite for anchor rotation: a fault that genuinely rotates
// the anchor rewrites every column of the map in one commit. The session
// must stay warm through that commit — a rotation is an ordinary
// anchor-changed step, never a fall back to the dense pipeline (which
// would park the daemon's delta ring on 410 resyncs) — stay bit-identical
// to the dense pipeline throughout, and keep emitting real column deltas.

// TestSessionRearmAfterRotation drives the cliff scenario: the rotating
// fault at the first Eval after a Reset, then churn on the warm rotated
// state, then healing the rotation away.
func TestSessionRearmAfterRotation(t *testing.T) {
	g := mustGraph(t, testParams2D())
	rot := g.FindAnchorRotatingFault()
	if rot < 0 {
		t.Fatal("no single-node anchor-rotating fault on the test host; pick a different host")
	}

	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := fault.NewSet(g.NumNodes())

	ses.Reset()
	faults.Add(rot)
	evalSessionBoth(t, g, ses, faults, "rotated first eval")
	if !ses.anchorRotated() {
		t.Fatal("FindAnchorRotatingFault's fault did not rotate the anchor")
	}
	if len(ses.recomp) != g.NumCols {
		t.Fatalf("rotating commit re-derived %d of %d columns", len(ses.recomp), g.NumCols)
	}
	if !ses.warm {
		t.Fatal("session not warm after the rotated first eval: the dense cliff is back")
	}
	if _, full := ses.DrainDelta(); !full {
		t.Fatal("the first eval after a Reset must report a full delta (resync boundary)")
	}

	// The very next commit must be a warm incremental one with a real
	// column delta — this is what lets the daemon serve ?since= again.
	far := g.NodeIndex(300, 250)
	faults.Add(far)
	ses.NoteAdded([]int{far})
	evalSessionBoth(t, g, ses, faults, "warm step on rotated state")
	if !ses.warm {
		t.Fatal("session fell off the warm path on the first post-rotation step")
	}
	cols, full := ses.DrainDelta()
	if full {
		t.Fatal("post-rotation step still reports Full: delta ring would 410 forever")
	}
	if len(cols) == 0 {
		t.Fatal("post-rotation step reported no candidate columns")
	}

	// An unhealthy episode on the rotated state must leave it intact.
	var killer []int
	for r := 0; r < g.P.M(); r++ {
		u := g.NodeIndex(r, 150)
		if !faults.Has(u) {
			faults.Add(u)
			killer = append(killer, u)
		}
	}
	ses.NoteAdded(killer)
	if _, err := ses.Eval(faults); err == nil {
		t.Fatal("full-column pattern unexpectedly tolerated")
	} else {
		var ue *UnhealthyError
		if !errors.As(err, &ue) {
			t.Fatalf("expected UnhealthyError, got %v", err)
		}
	}
	faults.RemoveAll(killer)
	ses.NoteCleared(killer)
	evalSessionBoth(t, g, ses, faults, "healed after unhealthy on rotated state")
	if !ses.warm {
		t.Fatal("session went cold across the unhealthy episode on the rotated state")
	}

	// Healing the rotating fault walks the state back to the default
	// anchor, still warm and still exact.
	faults.Remove(rot)
	ses.NoteCleared([]int{rot})
	evalSessionBoth(t, g, ses, faults, "rotation healed")
	if !ses.warm {
		t.Fatal("session went cold healing the rotating fault")
	}
	faults.Remove(far)
	ses.NoteCleared([]int{far})
	evalSessionBoth(t, g, ses, faults, "fully healed")
}

// TestSessionRotationWhileWarm adds the rotating fault to an
// already-warm session: the anchor-changed incremental path re-derives
// the whole map in one warm step (no cold rebuild, no Full delta), and
// subsequent churn keeps diffing against the rotated state.
func TestSessionRotationWhileWarm(t *testing.T) {
	g := mustGraph(t, testParams2D())
	rot := g.FindAnchorRotatingFault()
	if rot < 0 {
		t.Fatal("no single-node anchor-rotating fault on the test host")
	}
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := fault.NewSet(g.NumNodes())

	far := g.NodeIndex(300, 250)
	faults.Add(far)
	ses.NoteAdded([]int{far})
	evalSessionBoth(t, g, ses, faults, "warm base")
	ses.DrainDelta()

	faults.Add(rot)
	ses.NoteAdded([]int{rot})
	evalSessionBoth(t, g, ses, faults, "rotation while warm")
	if !ses.warm {
		t.Fatal("session went cold rotating while warm")
	}
	if _, full := ses.DrainDelta(); full {
		t.Fatal("warm rotation reported a Full delta; expected a (large) column delta")
	}

	// Random churn on top of the rotated state stays bit-identical.
	r := rng.NewPCG(77, 1)
	var buf []int
	for step := 0; step < 8; step++ {
		move := churnStep(r, faults, ses, g.P.TheoremFailureProb(), &buf)
		if !faults.Has(rot) {
			faults.Add(rot)
			ses.NoteAdded([]int{rot})
		}
		evalSessionBoth(t, g, ses, faults,
			fmt.Sprintf("rotated churn step=%d (%s, %d faults)", step, move, faults.Count()))
	}
}

// TestRearmInterleavingEquivalence is the golden interleaving suite with
// the rotating fault forced into the mix: arbitrary add/remove churn in
// and out of the rotated regime must stay bit-identical to the dense
// pipeline at every state.
func TestRearmInterleavingEquivalence(t *testing.T) {
	g := mustGraph(t, testParams2D())
	rot := g.FindAnchorRotatingFault()
	if rot < 0 {
		t.Fatal("no single-node anchor-rotating fault on the test host")
	}
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	pThm := g.P.TheoremFailureProb()
	var buf []int
	for seed := uint64(0); seed < 10; seed++ {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		r := rng.NewPCG(4024, seed)
		addRate := pThm * (1 + float64(seed%4)*8)
		for step := 0; step < 10; step++ {
			move := churnStep(r, faults, ses, addRate, &buf)
			// Toggle the rotating fault on a fixed cadence so the walk
			// keeps crossing the rotation boundary in both directions.
			if step%3 == 0 {
				if faults.Has(rot) {
					faults.Remove(rot)
					ses.NoteCleared([]int{rot})
				} else {
					faults.Add(rot)
					ses.NoteAdded([]int{rot})
				}
			}
			evalSessionBoth(t, g, ses, faults,
				fmt.Sprintf("rearm seed=%d step=%d (%s, %d faults)", seed, step, move, faults.Count()))
		}
	}
}
