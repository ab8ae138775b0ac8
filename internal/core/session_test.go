package core

import (
	"errors"
	"fmt"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// Golden equivalence suite for the bidirectional delta-evaluation engine:
// every Session state reached through an arbitrary interleaving of fault
// additions and removals must be bit-identical — outcome class, bands,
// embedding — to a from-scratch dense evaluation of the same fault set.
// The removal direction is what PR 4 added: a cleared fault heals columns
// back toward the template, exercising the previous-commit side of the
// two-sided dirty diff.

// evalSessionBoth compares one Session.Eval against a from-scratch dense
// evaluation of the same fault set: outcome class, bands and embedding
// must be bit-identical.
func evalSessionBoth(t *testing.T, g *Graph, ses *Session, faults *fault.Set, label string) {
	t.Helper()
	resIncr, errIncr := ses.Eval(faults)
	resDense, errDense := g.ContainTorus(faults, ExtractOptions{Dense: true})
	if (errIncr == nil) != (errDense == nil) {
		t.Fatalf("%s: outcome mismatch: session err=%v, dense err=%v", label, errIncr, errDense)
	}
	if errIncr != nil {
		var us, ud *UnhealthyError
		if errors.As(errIncr, &us) != errors.As(errDense, &ud) {
			t.Fatalf("%s: error class mismatch: session %v, dense %v", label, errIncr, errDense)
		}
		return
	}
	for gi := 0; gi < resDense.Bands.K(); gi++ {
		for z := 0; z < g.NumCols; z++ {
			if resDense.Bands.Value(gi, z) != resIncr.Bands.Value(gi, z) {
				t.Fatalf("%s: band %d column %d: dense %d, session %d",
					label, gi, z, resDense.Bands.Value(gi, z), resIncr.Bands.Value(gi, z))
			}
		}
	}
	for i := range resDense.Embedding.Map {
		if resDense.Embedding.Map[i] != resIncr.Embedding.Map[i] {
			t.Fatalf("%s: embedding differs at guest node %d: dense %d, session %d",
				label, i, resDense.Embedding.Map[i], resIncr.Embedding.Map[i])
		}
	}
}

// churnStep mutates faults by one random churn move — a Bernoulli batch
// of additions or a random healing pass — reports the delta to the
// session, and returns a label describing the move.
func churnStep(r rng.Source, faults *fault.Set, ses *Session, addRate float64, buf *[]int) string {
	if r.Float64() < 0.55 || faults.Count() == 0 {
		*buf = faults.BernoulliRecord(r, addRate, (*buf)[:0])
		ses.NoteAdded(*buf)
		return fmt.Sprintf("add %d", len(*buf))
	}
	*buf = faults.RemoveRecord(r, 0.2+0.6*r.Float64(), (*buf)[:0])
	ses.NoteCleared(*buf)
	return fmt.Sprintf("clear %d", len(*buf))
}

// TestSessionInterleavingEquivalence2D is the golden removal-path suite
// at d=2: 20 seeds of random add/remove interleavings, every state
// checked bit-identical against the dense pipeline.
func TestSessionInterleavingEquivalence2D(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	pThm := g.P.TheoremFailureProb()
	var buf []int
	for seed := uint64(0); seed < 20; seed++ {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		r := rng.NewPCG(2024, seed)
		// Mix sparse and heavy regimes so interleavings cross the
		// unhealthy boundary in both directions.
		addRate := pThm * (1 + float64(seed%4)*8)
		for step := 0; step < 12; step++ {
			move := churnStep(r, faults, ses, addRate, &buf)
			evalSessionBoth(t, g, ses, faults,
				fmt.Sprintf("seed=%d step=%d (%s, %d faults)", seed, step, move, faults.Count()))
		}
	}
}

// TestSessionInterleavingEquivalence3D is the same suite on the
// 9.4M-node d=3 host (fewer steps per seed; the dense comparator
// dominates the cost).
func TestSessionInterleavingEquivalence3D(t *testing.T) {
	if testing.Short() {
		t.Skip("9.4M-node instance")
	}
	g := mustGraph(t, Params{D: 3, W: 4, Pitch: 16, Scale: 1})
	sc := NewScratch()
	scDense := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	var buf, cleared []int
	for seed := uint64(0); seed < 20; seed++ {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		r := rng.NewPCG(3024, seed)
		// Three moves per seed: add a handful, churn once, heal fully —
		// the heal exercises whole-footprint restoration at d=3.
		for i := 0; i < 3+int(seed%3); i++ {
			buf = append(buf[:0], r.Intn(g.NumNodes()))
			faults.Add(buf[0])
			ses.NoteAdded(buf)
		}
		sessionDenseStep(t, g, ses, faults, scDense, fmt.Sprintf("d=3 seed=%d grown", seed))
		cleared = faults.RemoveRecord(r, 0.6, cleared[:0])
		ses.NoteCleared(cleared)
		sessionDenseStep(t, g, ses, faults, scDense, fmt.Sprintf("d=3 seed=%d healed", seed))
	}
}

// sessionDenseStep is evalSessionBoth with a reusable dense-side scratch:
// at d=3 the dense comparator would otherwise allocate ~100 MB per step.
func sessionDenseStep(t *testing.T, g *Graph, ses *Session, faults *fault.Set, scDense *Scratch, label string) {
	t.Helper()
	resIncr, errIncr := ses.Eval(faults)
	resDense, errDense := g.ContainTorus(faults, ExtractOptions{Dense: true, Scratch: scDense})
	if (errIncr == nil) != (errDense == nil) {
		t.Fatalf("%s: outcome mismatch: session err=%v, dense err=%v", label, errIncr, errDense)
	}
	if errIncr != nil {
		var us, ud *UnhealthyError
		if errors.As(errIncr, &us) != errors.As(errDense, &ud) {
			t.Fatalf("%s: error class mismatch: session %v, dense %v", label, errIncr, errDense)
		}
		return
	}
	for i := range resDense.Embedding.Map {
		if resDense.Embedding.Map[i] != resIncr.Embedding.Map[i] {
			t.Fatalf("%s: embedding differs at guest node %d: dense %d, session %d",
				label, i, resDense.Embedding.Map[i], resIncr.Embedding.Map[i])
		}
	}
}

// TestSessionHealToTemplate drives explicit heal-to-empty transitions:
// after clearing every fault the session state must be value-identical
// to the all-defaults template, and a subsequent add must still be
// incremental (warm diff, not a cold rebuild).
func TestSessionHealToTemplate(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := fault.NewSet(g.NumNodes())
	nodes := []int{g.NodeIndex(100, 100), g.NodeIndex(400, 300), g.NodeIndex(250, 200)}
	for _, u := range nodes {
		faults.Add(u)
	}
	ses.NoteAdded(nodes)
	evalSessionBoth(t, g, ses, faults, "grown")
	if !ses.warm {
		t.Fatal("session not warm after first Eval")
	}
	// Heal one at a time down to empty; every intermediate state must be
	// exact, and the engine must stay on the warm diff path throughout.
	for i, u := range nodes {
		faults.Remove(u)
		ses.NoteCleared(nodes[i : i+1])
		evalSessionBoth(t, g, ses, faults, fmt.Sprintf("healed %d", i))
		if !ses.warm {
			t.Fatalf("session went cold healing fault %d", i)
		}
	}
	if got := len(ses.cur.DirtyColumns()); got != 0 {
		t.Fatalf("fully healed session still has %d dirty columns", got)
	}
	// Forward again: the empty-state diff must rebuild the footprint.
	faults.Add(nodes[0])
	ses.NoteAdded(nodes[:1])
	evalSessionBoth(t, g, ses, faults, "re-grown")
}

// TestSessionUnhealthyRecovery pins the warm-state contract across
// failures in both directions: an unhealthy Eval (too-dense cluster)
// leaves the last healthy state intact, and a removal that heals the
// cluster back below the threshold must produce the exact dense result
// by diffing against that retained state.
func TestSessionUnhealthyRecovery(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := fault.NewSet(g.NumNodes())

	base := []int{g.NodeIndex(100, 100)}
	faults.Add(base[0])
	ses.NoteAdded(base)
	evalSessionBoth(t, g, ses, faults, "healthy base")

	// A full row of one tile violates the pigeonhole residue condition.
	var cluster []int
	row := 300
	for c := 200; c < 200+g.P.Tile(); c++ {
		u := g.NodeIndex(row, c)
		if !faults.Has(u) {
			faults.Add(u)
			cluster = append(cluster, u)
		}
	}
	for r := row; r < row+2*g.P.W; r++ {
		u := g.NodeIndex(r, 210)
		if !faults.Has(u) {
			faults.Add(u)
			cluster = append(cluster, u)
		}
	}
	ses.NoteAdded(cluster)
	if _, err := ses.Eval(faults); err == nil {
		t.Fatal("dense cluster unexpectedly healthy; strengthen the pattern")
	} else {
		var ue *UnhealthyError
		if !errors.As(err, &ue) {
			t.Fatalf("expected UnhealthyError, got %v", err)
		}
	}
	// Heal the cluster: back to the single-fault state, evaluated warm.
	faults.RemoveAll(cluster)
	ses.NoteCleared(cluster)
	evalSessionBoth(t, g, ses, faults, "healed after unhealthy")
	if !ses.warm {
		t.Fatal("session went cold across the unhealthy episode")
	}
}

// TestSessionChurnSurvivesFailedEval pins the bookkeeping behind the
// fail -> heal -> Reembed contract: churn columns reported through
// NoteAdded/NoteCleared must survive a failed (unhealthy) Eval — they
// are consumed only by a successful commit — so the eventual successful
// Eval re-verifies every column mutated since the last commit against
// exactly its own fault set.
func TestSessionChurnSurvivesFailedEval(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	faults := fault.NewSet(g.NumNodes())

	base := []int{g.NodeIndex(100, 100)}
	faults.Add(base[0])
	ses.NoteAdded(base)
	if _, err := ses.Eval(faults); err != nil {
		t.Fatal(err)
	}
	if len(ses.churn.cols) != 0 {
		t.Fatalf("successful Eval left %d churn columns pending", len(ses.churn.cols))
	}

	// An unmaskable pattern: a full host column.
	var killer []int
	col := 150
	for r := 0; r < g.P.M(); r++ {
		u := g.NodeIndex(r, col)
		faults.Add(u)
		killer = append(killer, u)
	}
	ses.NoteAdded(killer)
	if _, err := ses.Eval(faults); err == nil {
		t.Fatal("full-column pattern unexpectedly tolerated")
	}
	if !ses.churn.in[col] {
		t.Fatalf("failed Eval dropped churn: column %d not pending (%v)", col, ses.churn.cols)
	}

	// Churn reported *during* the failed episode accumulates too.
	extra := []int{g.NodeIndex(30, 60)}
	faults.Add(extra[0])
	ses.NoteAdded(extra)
	if !ses.churn.in[col] || !ses.churn.in[60] {
		t.Fatalf("churn recorded during failure lost: columns %d and 60 not both pending (%v)", col, ses.churn.cols)
	}

	// Heal and commit: the pending churn is consumed by the successful
	// Eval, and the state matches the dense pipeline bit for bit.
	faults.RemoveAll(killer)
	ses.NoteCleared(killer)
	evalSessionBoth(t, g, ses, faults, "healed after failed eval")
	if len(ses.churn.cols) != 0 {
		t.Fatalf("successful Eval left %d churn columns pending", len(ses.churn.cols))
	}
}

// checkSessionClass compares one Session.Check against a from-scratch
// dense evaluation of the same fault set (on scDense, or a fresh scratch
// when nil): the outcome must match, and a failure on either side must
// be an UnhealthyError.
func checkSessionClass(t *testing.T, g *Graph, ses *Session, faults *fault.Set, scDense *Scratch, label string) {
	t.Helper()
	errIncr := ses.Check(faults)
	_, errDense := g.ContainTorus(faults, ExtractOptions{Dense: true, Scratch: scDense})
	if (errIncr == nil) != (errDense == nil) {
		t.Fatalf("%s: outcome mismatch: session check err=%v, dense err=%v", label, errIncr, errDense)
	}
	if errIncr != nil {
		var us, ud *UnhealthyError
		if !errors.As(errIncr, &us) || !errors.As(errDense, &ud) {
			t.Fatalf("%s: error class mismatch: session check %v, dense %v", label, errIncr, errDense)
		}
	}
}

// checkEvalInterleaving drives random add/remove interleavings in which
// most steps call Check and every every-th step calls Eval: each Check
// must match the dense outcome class, and each Eval — whose map sync
// catches up on every Check since the last one — must be bit-identical
// to the dense pipeline.
func checkEvalInterleaving(t *testing.T, g *Graph, seeds, steps, every int, stream uint64) {
	sc := NewScratch()
	scDense := NewScratch()
	ses := g.NewSession(sc, ExtractOptions{})
	pThm := g.P.TheoremFailureProb()
	var buf []int
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		ses.Reset()
		faults := sc.Faults(g.NumNodes())
		r := rng.NewPCG(stream, seed)
		addRate := pThm * (1 + float64(seed%4)*8)
		for step := 1; step <= steps; step++ {
			move := churnStep(r, faults, ses, addRate, &buf)
			label := fmt.Sprintf("seed=%d step=%d (%s, %d faults)", seed, step, move, faults.Count())
			if step%every == 0 {
				sessionDenseStep(t, g, ses, faults, scDense, label)
			} else {
				checkSessionClass(t, g, ses, faults, scDense, label)
			}
		}
	}
}

// TestSessionCheckEvalInterleaving2D is the golden suite for the
// map-free step at d=2: 20 seeds of random add/remove interleavings,
// three Checks for every Eval, crossing unhealthy states and anchor
// rotations. Each seed ends on two Checks, so the next seed's first Eval
// also catches up on Checks made before its Reset. It runs on
// FuzzSession's 49k-node host: under -race, the dense comparator of
// every step on the 280k-node B² host would cost about a minute.
func TestSessionCheckEvalInterleaving2D(t *testing.T) {
	checkEvalInterleaving(t, mustGraph(t, testParams2DTight()), 20, 14, 4, 2025)
}

// TestSessionCheckEvalInterleaving3D is one seed of the same suite on
// the 9.4M-node d=3 host.
func TestSessionCheckEvalInterleaving3D(t *testing.T) {
	if testing.Short() {
		t.Skip("9.4M-node instance")
	}
	checkEvalInterleaving(t, mustGraph(t, Params{D: 3, W: 4, Pitch: 16, Scale: 1}), 1, 6, 3, 3025)
}
