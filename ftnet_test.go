package ftnet

import (
	"errors"
	"slices"
	"testing"

	"ftnet/internal/core"
)

func TestRandomFaultTorusRoundtrip(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if host.Side() < 150 || host.Dims() != 2 {
		t.Fatalf("side=%d dims=%d", host.Side(), host.Dims())
	}
	if host.Degree() != 10 {
		t.Errorf("degree = %d, want 10", host.Degree())
	}
	n := float64(host.Side())
	if got := float64(host.HostNodes()); got > (1+host.Eps())*n*n+1 {
		t.Errorf("host nodes %v exceed (1+eps)n^2", got)
	}
	faults := host.InjectRandom(7, host.TheoremFailureProb())
	emb, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Map) != host.Side()*host.Side() {
		t.Errorf("embedding size %d", len(emb.Map))
	}
	if _, err := emb.HostOf(0, 0); err != nil {
		t.Errorf("HostOf: %v", err)
	}
	if _, err := emb.HostOf(0); err == nil {
		t.Error("HostOf with wrong arity should fail")
	}
	if _, err := emb.HostOf(-1, 0); err == nil {
		t.Error("HostOf out of range should fail")
	}
}

func TestRandomFaultTorusNotTolerated(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.InjectRandom(3, 0.05) // far beyond tolerance
	_, err = host.Extract(faults)
	if err == nil {
		t.Skip("lucky pattern survived")
	}
	if !errors.Is(err, ErrNotTolerated) {
		t.Fatalf("expected ErrNotTolerated, got %v", err)
	}
}

func TestExtractMesh(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.NewFaults()
	faults.Add(1234)
	torusEmb, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	meshEmb, err := host.ExtractMesh(faults)
	if err != nil {
		t.Fatal(err)
	}
	// Same node map (mesh edges are a subset of torus edges).
	for i := range torusEmb.Map {
		if torusEmb.Map[i] != meshEmb.Map[i] {
			t.Fatalf("mesh map differs from torus map at %d", i)
		}
	}
}

func TestRandomFaultTorusHealthy(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !host.Healthy(host.NewFaults()) {
		t.Error("fault-free host unhealthy")
	}
}

func TestFaultsAPI(t *testing.T) {
	host, _ := NewRandomFaultTorus(2, 150, 0.5)
	f := host.NewFaults()
	f.Add(10)
	f.Add(10)
	f.Add(20)
	if f.Count() != 2 || !f.Has(10) || f.Has(11) {
		t.Error("Faults basic ops wrong")
	}
	nodes := f.Nodes()
	if len(nodes) != 2 || nodes[0] != 10 || nodes[1] != 20 {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestCliqueTorusRoundtrip(t *testing.T) {
	host, err := NewCliqueTorus(2, 300, 0.1, 0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if host.Side() < 300 {
		t.Fatalf("side %d", host.Side())
	}
	if host.Redundancy() <= 1/(1-0.1) {
		t.Errorf("redundancy %v too small", host.Redundancy())
	}
	emb, err := host.ExtractRandom(11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Map) != host.Side()*host.Side() {
		t.Errorf("embedding size %d", len(emb.Map))
	}
	if host.SupernodeSize() < 4 {
		t.Errorf("supernode size %d", host.SupernodeSize())
	}
}

func TestCliqueTorusRejectsBadC(t *testing.T) {
	if _, err := NewCliqueTorus(2, 300, 0.5, 0, 1.5); err == nil {
		t.Error("c < 1/(1-p) accepted")
	}
}

func TestWorstCaseTorusRoundtrip(t *testing.T) {
	host, err := NewWorstCaseTorus(2, 80, 27)
	if err != nil {
		t.Fatal(err)
	}
	if host.Capacity() < 27 || host.Degree() != 8 {
		t.Fatalf("capacity=%d degree=%d", host.Capacity(), host.Degree())
	}
	faults := host.NewFaults()
	// Full budget of clustered faults plus a faulty edge.
	for i := 0; i < host.Capacity()-1; i++ {
		faults.Add(host.HostIndex(10+i/5, 10+i%5))
	}
	u := host.HostIndex(40, 40)
	v := host.HostIndex(40, 41)
	emb, err := host.Extract(faults, [][2]int{{u, v}})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Map) != host.Side()*host.Side() {
		t.Errorf("embedding size %d", len(emb.Map))
	}
	// Host coordinate helpers roundtrip.
	c := host.HostCoord(u)
	if host.HostIndex(c...) != u {
		t.Error("HostCoord/HostIndex roundtrip failed")
	}
}

func TestWorstCaseTorusOverBudget(t *testing.T) {
	host, err := NewWorstCaseTorus(2, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.NewFaults()
	// Hammer one residue class far beyond capacity.
	for i := 0; i < host.HostNodes()/3; i++ {
		faults.Add(i * 3)
	}
	if _, err := host.Extract(faults, nil); !errors.Is(err, ErrNotTolerated) {
		t.Fatalf("expected ErrNotTolerated, got %v", err)
	}
}

// TestRejectionKeepsCause: a rejection from Extract, Reembed and
// ReembedDelta wraps ErrNotTolerated and keeps the construction's typed
// cause on the chain, and an over-budget worst-case set is coded
// not_tolerated.
func TestRejectionKeepsCause(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.NewFaults()
	ses := host.NewSession()
	for v := 0; v < host.HostNodes(); v += 7 {
		faults.Add(v)
		ses.AddFaults(v)
	}
	_, extractErr := host.Extract(faults)
	_, reembedErr := ses.Reembed()
	_, _, deltaErr := ses.ReembedDelta()
	for _, c := range []struct {
		name string
		err  error
	}{{"Extract", extractErr}, {"Reembed", reembedErr}, {"ReembedDelta", deltaErr}} {
		if !errors.Is(c.err, ErrNotTolerated) {
			t.Errorf("%s: err = %v, want ErrNotTolerated", c.name, c.err)
		}
		if !errors.As(c.err, new(*core.UnhealthyError)) {
			t.Errorf("%s: err = %v, want a *core.UnhealthyError on the chain", c.name, c.err)
		}
	}

	wc, err := NewWorstCaseTorus(2, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	over := wc.NewFaults()
	for v := 0; v < wc.HostNodes(); v += 3 {
		over.Add(v)
	}
	_, err = wc.Extract(over, nil)
	if CodeOf(err) != CodeNotTolerated || !errors.Is(err, ErrNotTolerated) {
		t.Errorf("over-budget worst-case Extract: err = %v (code %q), want ErrNotTolerated", err, CodeOf(err))
	}
}

// TestWorstCaseEdgeOrderIndependent: Theorem 3 charges a faulty edge to
// one endpoint, and the charged endpoint must not depend on the order
// the edge's endpoints are listed in, so {u, v} and {v, u} give the same
// embedding.
func TestWorstCaseEdgeOrderIndependent(t *testing.T) {
	host, err := NewWorstCaseTorus(2, 80, 27)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i := 0; i < 10; i++ {
		x, y := 30+3*i, 30+5*i
		u := host.HostIndex(x, y)
		for _, v := range []int{host.HostIndex(x+1, y), host.HostIndex(x, y+1)} {
			fwd, err := host.Extract(host.NewFaults(), [][2]int{{u, v}})
			if err != nil {
				t.Fatalf("edge {%d,%d}: %v", u, v, err)
			}
			rev, err := host.Extract(host.NewFaults(), [][2]int{{v, u}})
			if err != nil {
				t.Fatalf("edge {%d,%d}: %v", v, u, err)
			}
			if !slices.Equal(fwd.Map, rev.Map) {
				differ++
				t.Errorf("edge {%d,%d}: the embedding depends on the endpoint order", u, v)
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of 20 edges embed differently when their endpoints are swapped", differ)
	}
}

func TestEmbeddingMeshMethod(t *testing.T) {
	host, err := NewWorstCaseTorus(2, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.NewFaults()
	faults.Add(host.HostIndex(5, 5))
	emb, err := host.Extract(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := emb.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Side != emb.Side || len(mesh.Map) != len(emb.Map) {
		t.Error("mesh restriction changed shape")
	}
	// A second restriction must fail (already a mesh).
	if _, err := mesh.Mesh(); err == nil {
		t.Error("double mesh restriction accepted")
	}
}

func TestExtractDeterministic(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.InjectRandom(77, 3e-5)
	a, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	b, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Map {
		if a.Map[i] != b.Map[i] {
			t.Fatalf("extraction differs at %d", i)
		}
	}
	// InjectRandom with the same seed is also reproducible.
	if host.InjectRandom(77, 3e-5).Count() != faults.Count() {
		t.Error("InjectRandom not deterministic")
	}
}

// TestSessionLifecycle drives the public churn API end to end: every
// Reembed must match a from-scratch Extract of the same fault set,
// through additions, repairs, an intolerable episode, and recovery.
func TestSessionLifecycle(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ses := host.NewSession()

	check := func(label string) *Embedding {
		t.Helper()
		emb, err := ses.Reembed()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fresh := host.NewFaults()
		for v := 0; v < host.HostNodes(); v++ {
			if ses.Faulty(v) {
				fresh.Add(v)
			}
		}
		want, err := host.Extract(fresh)
		if err != nil {
			t.Fatalf("%s: fresh extract: %v", label, err)
		}
		for i := range want.Map {
			if emb.Map[i] != want.Map[i] {
				t.Fatalf("%s: session and fresh extraction differ at guest node %d", label, i)
			}
		}
		return emb
	}

	first := check("empty")
	firstCopy := append([]int(nil), first.Map...)
	ses.AddFaults(1234, 99999, 1234) // duplicate add is a no-op
	if ses.FaultCount() != 2 {
		t.Fatalf("fault count %d, want 2", ses.FaultCount())
	}
	check("grown")
	// The snapshot handed out earlier must be unaffected by mutations:
	// Reembed returns copies, not views of the session's scratch.
	for i, v := range firstCopy {
		if first.Map[i] != v {
			t.Fatalf("earlier snapshot mutated at guest node %d", i)
		}
	}
	ses.ClearFaults(1234)
	if ses.FaultCount() != 1 {
		t.Fatalf("fault count %d after repair, want 1", ses.FaultCount())
	}
	check("repaired")
	ses.ClearFaults(99999, 99999)
	if ses.FaultCount() != 0 {
		t.Fatalf("fault count %d after full repair, want 0", ses.FaultCount())
	}
	healed := check("healed")
	for i := range healed.Map {
		if healed.Map[i] != first.Map[i] {
			t.Fatalf("fully healed session differs from the pristine embedding at %d", i)
		}
	}
	if _, err := healed.Mesh(); err != nil {
		t.Fatalf("mesh restriction on session embedding: %v", err)
	}

	// Overload the host; the session must classify the failure and stay
	// usable for recovery.
	over := host.InjectRandom(3, 0.05)
	ses.AddFaults(over.Nodes()...)
	if _, err := ses.Reembed(); err == nil {
		t.Skip("lucky pattern survived")
	} else if !errors.Is(err, ErrNotTolerated) {
		t.Fatalf("expected ErrNotTolerated, got %v", err)
	}
	ses.ClearFaults(over.Nodes()...)
	ses.AddFaults(777)
	check("recovered")
}

func TestThreeDimensional(t *testing.T) {
	if testing.Short() {
		t.Skip("3D hosts are large")
	}
	host, err := NewRandomFaultTorus(3, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if host.Degree() != 16 {
		t.Errorf("3D degree = %d, want 16", host.Degree())
	}
	faults := host.NewFaults()
	faults.Add(12345)
	if _, err := host.Extract(faults); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsAddChecked pins the API-boundary validation: out-of-range
// indices — including those that land in the padding bits of the
// bitset's last word, which the raw bitset silently absorbs — must be
// rejected before they can corrupt state, and the unchecked signature
// must fail loudly instead of deep inside fault.Set.
func TestFaultsAddChecked(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := host.NewFaults()
	if f.Len() != host.HostNodes() {
		t.Fatalf("Len = %d, want %d", f.Len(), host.HostNodes())
	}
	if err := f.AddChecked(0); err != nil {
		t.Fatal(err)
	}
	if err := f.AddChecked(f.Len() - 1); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, f.Len(), f.Len() + 1, (f.Len()/64+1)*64 - 1, 1 << 40} {
		if err := f.AddChecked(bad); err == nil {
			t.Errorf("AddChecked(%d) accepted (universe %d)", bad, f.Len())
		}
	}
	if f.Count() != 2 {
		t.Fatalf("rejected adds corrupted Count: %d", f.Count())
	}
	defer func() {
		if recover() == nil {
			t.Error("Add with out-of-range index did not panic")
		}
	}()
	f.Add(f.Len())
}

// TestSessionCheckedMutations pins the all-or-nothing contract of the
// validated session mutators: a batch with any invalid index mutates
// nothing.
func TestSessionCheckedMutations(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ses := host.NewSession()
	if ses.HostNodes() != host.HostNodes() {
		t.Fatalf("HostNodes = %d, want %d", ses.HostNodes(), host.HostNodes())
	}
	if err := ses.AddFaultsChecked(3, 99, ses.HostNodes()); err == nil {
		t.Fatal("AddFaultsChecked accepted an out-of-range index")
	}
	if ses.FaultCount() != 0 || ses.Faulty(3) {
		t.Fatal("rejected batch partially applied")
	}
	if err := ses.AddFaultsChecked(3, 99); err != nil {
		t.Fatal(err)
	}
	if got := ses.FaultNodes(); len(got) != 2 || got[0] != 3 || got[1] != 99 {
		t.Fatalf("FaultNodes = %v", got)
	}
	if err := ses.ClearFaultsChecked(3, -1); err == nil {
		t.Fatal("ClearFaultsChecked accepted an out-of-range index")
	}
	if !ses.Faulty(3) {
		t.Fatal("rejected clear batch partially applied")
	}
	if err := ses.ClearFaultsChecked(3, 99); err != nil {
		t.Fatal(err)
	}
	if ses.FaultCount() != 0 {
		t.Fatalf("FaultCount = %d after full clear", ses.FaultCount())
	}
	defer func() {
		if recover() == nil {
			t.Error("AddFaults with out-of-range index did not panic")
		}
	}()
	ses.AddFaults(-5)
}

// TestSessionFailHealReembed is the fail -> heal -> Reembed regression
// test: after a Reembed fails with ErrNotTolerated, the churn recorded
// before and during the failed episode must survive, so that once the
// state heals, every mutated column is re-checked against exactly its
// own fault set and the result is bit-identical to a from-scratch
// Extract.
func TestSessionFailHealReembed(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ses := host.NewSession()
	side := host.Side()
	rows := host.HostNodes() / side // d=2: numCols == side

	// Healthy base state.
	ses.AddFaults(17)
	if _, err := ses.Reembed(); err != nil {
		t.Fatal(err)
	}

	// Kill an entire host column: unmaskable, Reembed must fail.
	col := side / 2
	killer := make([]int, rows)
	for r := range killer {
		killer[r] = r*side + col
	}
	ses.AddFaults(killer...)
	if _, err := ses.Reembed(); !errors.Is(err, ErrNotTolerated) {
		t.Fatalf("expected ErrNotTolerated, got %v", err)
	}

	// The session must stay usable across the failure: mutate more
	// (a second benign fault in a different column) while unhealthy.
	other := 40*side + col/2
	ses.AddFaults(other)
	if _, err := ses.Reembed(); !errors.Is(err, ErrNotTolerated) {
		t.Fatalf("still-dense pattern: expected ErrNotTolerated, got %v", err)
	}

	// Heal the killer column and re-embed: the pending churn from the
	// failed episodes (killer column and 'other') must still be
	// re-checked, and the result must equal a from-scratch Extract.
	ses.ClearFaults(killer...)
	emb, err := ses.Reembed()
	if err != nil {
		t.Fatal(err)
	}
	if ses.FaultCount() != 2 {
		t.Fatalf("FaultCount = %d, want 2", ses.FaultCount())
	}
	faults := host.NewFaults()
	faults.Add(17)
	faults.Add(other)
	want, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Map {
		if want.Map[i] != emb.Map[i] {
			t.Fatalf("healed session embedding differs from from-scratch Extract at guest node %d", i)
		}
	}

	// And the session keeps working incrementally afterwards.
	ses.ClearFaults(17, other)
	emb2, err := ses.Reembed()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := host.Extract(host.NewFaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Map {
		if clean.Map[i] != emb2.Map[i] {
			t.Fatalf("fully healed embedding differs from fault-free Extract at guest node %d", i)
		}
	}
}

// TestReembedDelta pins the change-accounting contract: the delta
// returned alongside each successful reembed must cover every guest map
// entry that differs from the previous successful reembed — including
// changes made while evaluating fault sets that were rejected with
// ErrNotTolerated in between.
func TestReembedDelta(t *testing.T) {
	host, err := NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ses := host.NewSession()
	side := host.Side()
	rows := host.HostNodes() / side // d=2: numCols == side
	numCols := side                 // guest columns (d=2)

	emb, d, err := ses.ReembedDelta()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full {
		t.Fatalf("first reembed delta = %+v, want Full", d)
	}
	prev := append([]int(nil), emb.Map...)

	step := func(label string) {
		t.Helper()
		emb, d, err := ses.ReembedDelta()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if d.Full {
			prev = append(prev[:0], emb.Map...)
			return
		}
		changed := make(map[int]bool, len(d.Cols))
		last := -1
		for _, z := range d.Cols {
			if z <= last || z >= numCols {
				t.Fatalf("%s: delta cols %v not sorted/deduped in range", label, d.Cols)
			}
			last = z
			changed[z] = true
		}
		for i := range emb.Map {
			if emb.Map[i] != prev[i] && !changed[i%numCols] {
				t.Fatalf("%s: guest node %d (column %d) changed but column not in delta %v",
					label, i, i%numCols, d.Cols)
			}
		}
		prev = append(prev[:0], emb.Map...)
	}

	ses.AddFaults(17, 40*side+9)
	step("grown")
	ses.ClearFaults(17)
	step("repaired")

	// A failed episode in between: kill a whole host column (rejected),
	// then heal it and mutate elsewhere. The accounting must span the
	// failed evals, whose extractions already rewrote embedding columns.
	col := side / 2
	killer := make([]int, rows)
	for r := range killer {
		killer[r] = r*side + col
	}
	ses.AddFaults(killer...)
	if _, _, err := ses.ReembedDelta(); !errors.Is(err, ErrNotTolerated) {
		t.Fatalf("expected ErrNotTolerated, got %v", err)
	}
	ses.ClearFaults(killer...)
	ses.AddFaults(13*side + 3)
	step("recovered-across-failure")

	ses.ClearFaults(ses.FaultNodes()...)
	step("healed")
}

// TestOneShotRejectsForeignInput pins the input checks of the one-shot
// entry points: a fault set built for another host, and edge pairs out
// of range, self-looped or not adjacent in the host, are CodeInvalid
// errors (a panic carrying one from Healthy, which returns only a bool),
// never an index panic, a wrong answer or an embedding.
func TestOneShotRejectsForeignInput(t *testing.T) {
	small, err := NewRandomFaultTorus(2, 64, 0.5) // 49,152 host nodes
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRandomFaultTorus(2, 400, 0.5) // 279,936 host nodes
	if err != nil {
		t.Fatal(err)
	}
	bigFaults := big.NewFaults()
	for _, v := range []int{7, 100000, big.HostNodes() - 1} {
		bigFaults.Add(v)
	}
	// Every index of bigLow is in range on the small host too, so
	// nothing catches it there but the universe check.
	bigLow := big.NewFaults()
	bigLow.Add(7)
	bigLow.Add(30000)
	smallFaults := small.NewFaults()
	for _, v := range []int{7, 30000, small.HostNodes() - 1} {
		smallFaults.Add(v)
	}
	wc, err := NewWorstCaseTorus(2, 60, 8) // 8,100 host nodes
	if err != nil {
		t.Fatal(err)
	}
	wcBig, err := NewWorstCaseTorus(2, 80, 27) // 32,400 host nodes
	if err != nil {
		t.Fatal(err)
	}
	wcForeign := wcBig.NewFaults()
	wcForeign.Add(5)
	wcFaults := wc.NewFaults()
	wcFaults.Add(wc.HostIndex(5, 5))

	cases := []struct {
		name string
		call func() error
	}{
		{"Extract: set of a larger host", func() error { _, err := small.Extract(bigFaults); return err }},
		{"Extract: set of a smaller host", func() error { _, err := big.Extract(smallFaults); return err }},
		{"ExtractMesh: set of a larger host", func() error { _, err := small.ExtractMesh(bigFaults); return err }},
		{"Healthy: set of a larger host", func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err, _ = r.(error)
				}
			}()
			small.Healthy(bigLow)
			return nil
		}},
		{"WorstCase Extract: set of a larger host", func() error { _, err := wc.Extract(wcForeign, nil); return err }},
		{"WorstCase Extract: edge out of range", func() error {
			_, err := wc.Extract(wcFaults, [][2]int{{-5, 1 << 40}})
			return err
		}},
		{"WorstCase Extract: self-loop", func() error { _, err := wc.Extract(wcFaults, [][2]int{{0, 0}}); return err }},
		{"WorstCase Extract: non-adjacent pair", func() error {
			_, err := wc.Extract(wcFaults, [][2]int{{0, 460}})
			return err
		}},
	}
	for _, c := range cases {
		err := c.call()
		if CodeOf(err) != CodeInvalid || errors.Is(err, ErrNotTolerated) {
			t.Errorf("%s: err = %v, want a %s error not wrapped in ErrNotTolerated", c.name, err, CodeInvalid)
		}
	}
}
