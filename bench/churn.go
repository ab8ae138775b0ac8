package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"ftnet"
	"ftnet/internal/churn"
	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

// traceStream is the PCG stream every pre-generated fault trace draws
// from (the seed selects the trace).
const traceStream = 0x7472616365

// event is one pre-generated churn step: the fault mutations one
// Gillespie event applied, in the form the public APIs take. A step is
// one kind (node add, node clear, clustered node burst, link flap, link
// repair), so at most one list is non-empty.
type event struct {
	addNodes, clearNodes []int
	addEdges, clearEdges [][2]int
	effToggles           int // effective (charged) set changes the step made
}

// genTrace draws n non-empty events of the mixed node+edge process on g
// (the host the benchmark replays on, built identically), starting from
// the fault-free host. Steps that change nothing (a burst landing only on
// faulty nodes) are skipped.
func genTrace(g *core.Graph, proc churn.Process, seed uint64, n int) ([]event, error) {
	gen, err := churn.NewGeneratorHost(proc, g)
	if err != nil {
		return nil, err
	}
	ch := fault.NewCharger(g.NumNodes())
	r := rng.NewPCG(seed, traceStream)
	out := make([]event, 0, n)
	for len(out) < n {
		ev, err := gen.NextMixed(r, ch)
		if err != nil {
			return nil, err
		}
		e := event{
			addNodes:   slices.Clone(ev.Added),
			clearNodes: slices.Clone(ev.Cleared),
			addEdges:   edgePairs(ev.EdgeAdded),
			clearEdges: edgePairs(ev.EdgeCleared),
			effToggles: len(ev.EffAdded) + len(ev.EffCleared),
		}
		if len(e.addNodes)+len(e.clearNodes)+len(e.addEdges)+len(e.clearEdges) == 0 {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

func edgePairs(es []fault.Edge) [][2]int {
	if len(es) == 0 {
		return nil
	}
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// digest is a SHA-256 over a canonical encoding of the trace.
func digest(trace []event) string {
	h := sha256.New()
	var buf []byte
	put := func(xs ...int) {
		for _, x := range xs {
			buf = binary.AppendVarint(buf, int64(x))
		}
	}
	for _, e := range trace {
		buf = buf[:0]
		put(len(e.addNodes), len(e.clearNodes), len(e.addEdges), len(e.clearEdges))
		put(e.addNodes...)
		put(e.clearNodes...)
		for _, uv := range e.addEdges {
			put(uv[0], uv[1])
		}
		for _, uv := range e.clearEdges {
			put(uv[0], uv[1])
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// applyFacade replays one event through the public Session mutators.
func applyFacade(s *ftnet.Session, e *event) error {
	if len(e.addNodes) > 0 {
		if err := s.AddFaultsChecked(e.addNodes...); err != nil {
			return err
		}
	}
	if len(e.clearNodes) > 0 {
		if err := s.ClearFaultsChecked(e.clearNodes...); err != nil {
			return err
		}
	}
	if len(e.addEdges) > 0 {
		if err := s.AddEdgeFaultsChecked(e.addEdges...); err != nil {
			return err
		}
	}
	if len(e.clearEdges) > 0 {
		if err := s.ClearEdgeFaultsChecked(e.clearEdges...); err != nil {
			return err
		}
	}
	return nil
}

// denseCheck compares an embedding map bit for bit with the dense
// oracle, RandomFaultTorus.Extract of the charged effective set (node
// faults plus the smaller endpoint of every faulty edge).
func denseCheck(host *ftnet.RandomFaultTorus, nodes []int, edges [][2]int, got []int) error {
	f := host.NewFaults()
	for _, v := range nodes {
		f.Add(v)
	}
	for _, e := range edges {
		f.Add(fault.ChargedEndpoint(e[0], e[1]))
	}
	emb, err := host.Extract(f)
	if err != nil {
		return fmt.Errorf("dense oracle rejects a committed fault set (%d nodes, %d edges): %v", len(nodes), len(edges), err)
	}
	if !slices.Equal(emb.Map, got) {
		return fmt.Errorf("map differs from the dense oracle (%d nodes, %d edges)", len(nodes), len(edges))
	}
	return nil
}

// shadow is a benchmark-owned fault.Charger + core.Session on an
// identically built core.Graph, stepped through the same events in a
// traced run. The facade hides its engine, so the shadow is what times
// the core layer: the placement probe (Graph.Tolerates) and the session
// evaluation, under a "shadow" root outside every operation's span.
type shadow struct {
	g              *core.Graph
	ch             *fault.Charger
	ses            *core.Session
	sc             *core.Scratch
	added, cleared []int
	prev           []int // last committed map

	// Delta accounting over the traced commits: full rewrites, commits
	// with a column delta, and their candidate and truly changed columns.
	fullRewrites, deltaCommits, deltaCols, exact int
}

func newShadow(g *core.Graph) (*shadow, error) {
	sc := core.NewScratch(1)
	s := &shadow{g: g, ch: fault.NewCharger(g.NumNodes()), sc: sc, ses: g.NewSession(sc, core.ExtractOptions{})}
	res, err := s.ses.Eval(s.ch.Effective()) // builds the template, like the facade's first Reembed
	if err != nil {
		return nil, fmt.Errorf("shadow: cold evaluation: %w", err)
	}
	s.ses.DrainDelta()
	s.prev = slices.Clone(res.Embedding.Map)
	return s, nil
}

// apply mirrors one event into the charger and notes its effective
// deltas on the session.
func (s *shadow) apply(e *event) {
	s.added, s.cleared = s.added[:0], s.cleared[:0]
	for _, v := range e.addNodes {
		if _, eff := s.ch.AddNode(v); eff >= 0 {
			s.added = append(s.added, eff)
		}
	}
	for _, v := range e.clearNodes {
		if _, eff := s.ch.ClearNode(v); eff >= 0 {
			s.cleared = append(s.cleared, eff)
		}
	}
	for _, uv := range e.addEdges {
		if _, eff := s.ch.AddEdge(uv[0], uv[1]); eff >= 0 {
			s.added = append(s.added, eff)
		}
	}
	for _, uv := range e.clearEdges {
		if _, eff := s.ch.ClearEdge(uv[0], uv[1]); eff >= 0 {
			s.cleared = append(s.cleared, eff)
		}
	}
	s.ses.NoteAdded(s.added)
	s.ses.NoteCleared(s.cleared)
}

// catchUp evaluates, untraced, the mutations applied while the shadow
// was idle (the untraced half of a traced run), so that the first traced
// evaluation covers one event like every later one.
func (s *shadow) catchUp() error {
	res, err := s.ses.Eval(s.ch.Effective())
	var ue *core.UnhealthyError
	switch {
	case err == nil:
		s.ses.DrainDelta()
		s.prev = append(s.prev[:0], res.Embedding.Map...)
	case !errors.As(err, &ue):
		return fmt.Errorf("shadow catch-up: %w", err)
	}
	return nil
}

// eval probes and evaluates the current effective set under a shadow
// root span. It returns the committed map (nil when the set is not
// tolerated) and an error only for a probe/pipeline disagreement or a
// non-survival failure. The delta accounting compares each commit's
// candidate columns with the columns that truly changed.
func (s *shadow) eval(tr *tracer, event int64) ([]int, error) {
	root, start := tr.id(), time.Now()
	var probeErr, err error
	var res *core.Result
	tr.child(root, event, "core.place_probe", func(int64) { probeErr = s.g.Tolerates(s.ch.Effective(), s.sc) })
	tr.child(root, event, "core.eval", func(int64) { res, err = s.ses.Eval(s.ch.Effective()) })
	tr.record(root, 0, event, rootShadow, start, time.Now())
	var ue *core.UnhealthyError
	if err != nil && !errors.As(err, &ue) {
		return nil, fmt.Errorf("shadow evaluation: %w", err)
	}
	if (probeErr == nil) != (err == nil) {
		return nil, fmt.Errorf("placement probe (%v) disagrees with the pipeline (%v)", probeErr, err)
	}
	if err != nil {
		return nil, nil
	}
	cols, full := s.ses.DrainDelta()
	m := res.Embedding.Map
	if full {
		s.fullRewrites++
	} else {
		exact, err := changedColumns(s.prev, m, s.g.NumCols, cols)
		if err != nil {
			return nil, err
		}
		s.deltaCommits++
		s.deltaCols += len(cols)
		s.exact += exact
	}
	s.prev = append(s.prev[:0], m...)
	return m, nil
}

// layer reports the shadow's delta accounting as per-layer values.
func (s *shadow) layer(out *outcome) {
	out.layer["ftnet.full_rewrites"] = float64(s.fullRewrites)
	if s.deltaCommits > 0 {
		out.layer["ftnet.delta_cols"] = float64(s.deltaCols) / float64(s.deltaCommits)
	}
	if s.deltaCols > 0 {
		out.layer["ftnet.delta_precision"] = float64(s.exact) / float64(s.deltaCols)
	}
}

// changedColumns counts the columns whose map entries differ between
// prev and cur (guest node j*numCols+z lies in column z) and checks that
// every one of them is among the candidates a delta reported.
func changedColumns(prev, cur []int, numCols int, candidates []int32) (int, error) {
	changed := make(map[int]bool)
	for i := range cur {
		if prev[i] != cur[i] {
			changed[i%numCols] = true
		}
	}
	cand := make(map[int]bool, len(candidates))
	for _, z := range candidates {
		cand[int(z)] = true
	}
	for z := range changed {
		if !cand[z] {
			return 0, fmt.Errorf("column %d changed but the delta does not report it", z)
		}
	}
	return len(changed), nil
}

// churnSpec is one churn workload's host and inputs.
type churnSpec struct {
	d, minSide int
	eps        float64
	proc       func(g *core.Graph) churn.Process
	events     int // trace length (more than a run replays)
	warmup     int // untimed events at the start
	shortOps   int // timed events per phase in a short run
}

// mixedProc is a mixed node+edge process with unit repair rates whose
// stationary population holds about nodes individual node faults, edges
// faulty links and burstRate×8 nodes from clustered bursts of size 8.
// The burst pattern is set explicitly: Process's zero value is
// fault.Uniform, whatever its field comment says.
func mixedProc(nodes, edges, burstRate float64) func(g *core.Graph) churn.Process {
	return func(g *core.Graph) churn.Process {
		n := float64(g.NumNodes())
		e := n * float64(g.Degree()) / 2
		return churn.Process{
			Arrival: nodes / n, Repair: 1,
			BurstRate: burstRate, BurstSize: 8, BurstPattern: fault.Cluster,
			EdgeArrival: edges / e, EdgeRepair: 1,
		}
	}
}

// churnD2 is the B2 facade host NewRandomFaultTorus(2, 400, 0.5): 279,936
// host nodes, a 432×432 guest. The rates were calibrated once (seeds
// 1-5, 4,000 events each) for 5-15% rejected evaluations: 8.8%, at a
// standing effective population of about 14 (4.5 node faults, 4.5 links,
// 3.6 burst nodes), with bursts on 2.1% of events. A standing
// population of 24 rejects over 40%.
var churnD2 = churnSpec{
	d: 2, minSide: 400, eps: 0.5,
	proc:   mixedProc(4.5, 4.5, 0.45),
	events: 100_000, warmup: 500, shortOps: 60,
}

// churnD3 is BenchmarkChurnSession3D's host, NewRandomFaultTorus(3, 64,
// 0.5) = Params{3, 4, 16, 1}: 9,437,184 host nodes, a 192³ guest, node
// faults only at a standing population of about 6.
var churnD3 = churnSpec{
	d: 3, minSide: 64, eps: 0.5,
	proc:   func(g *core.Graph) churn.Process { return churn.Process{Arrival: 6 / float64(g.NumNodes()), Repair: 1} },
	events: 6_000, warmup: 50, shortOps: 3,
}

// churnD2Short is churn-d2 on the small d=2 serving host, for the
// self-test.
var churnD2Short = churnSpec{
	d: 2, minSide: 64, eps: 0.5,
	proc:   mixedProc(1.5, 1.5, 0.15),
	events: 200, warmup: 10, shortOps: 60,
}

func runChurnD2(cfg runConfig) (*outcome, error) {
	if cfg.short {
		return runChurn(cfg, churnD2Short)
	}
	return runChurn(cfg, churnD2)
}

func runChurnD3(cfg runConfig) (*outcome, error) {
	sp := churnD3
	if cfg.short {
		sp.events, sp.warmup = 12, 2
	}
	return runChurn(cfg, sp)
}

// checkEvery is the commit cadence of the dense oracle checks, besides
// the first and the last commit.
const checkEvery = 256

// commitState is what an oracle check of one commit needs.
type commitState struct {
	index int
	emb   *ftnet.Embedding
	nodes []int
	edges [][2]int
}

// runChurn replays a pre-generated trace through the public
// ftnet.Session: per event, the mutation calls and one ReembedDelta,
// closed loop, one caller.
func runChurn(cfg runConfig, sp churnSpec) (*outcome, error) {
	out := newOutcome("event")
	params, err := core.FitParams(sp.d, sp.minSide, sp.eps)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGraph(params)
	if err != nil {
		return nil, err
	}
	proc := sp.proc(g)
	trace, err := genTrace(g, proc, cfg.seed, sp.events)
	if err != nil {
		return nil, err
	}
	out.inputs["host"] = params.String()
	out.inputs["process"] = fmt.Sprintf("%+v", proc)
	out.inputs["events"] = fmt.Sprintf("%d (warmup %d)", len(trace), sp.warmup)
	out.digests["trace"] = digest(trace)

	var host *ftnet.RandomFaultTorus
	var ses *ftnet.Session
	for i := 0; i < cfg.builds; i++ {
		host, ses = nil, nil
		runtime.GC() // the previous construction's garbage is not this one's cost
		start := time.Now()
		if host, err = ftnet.NewRandomFaultTorus(sp.d, sp.minSide, sp.eps); err != nil {
			return nil, err
		}
		ses = host.NewSession()
		if _, _, err := ses.ReembedDelta(); err != nil {
			return nil, fmt.Errorf("cold reembed: %w", err)
		}
		out.setup = append(out.setup, time.Since(start))
	}

	var sh *shadow
	if cfg.trace {
		out.tr = newTracer()
		if sh, err = newShadow(g); err != nil {
			return nil, err
		}
	}
	ph := newPhases(cfg, sp.shortOps, out.tr)

	var (
		commits   int
		last      commitState
		lastCheck = -1
		rejected  int
		toggles   int
		caughtUp  bool
	)
	check := func(c commitState) {
		start := time.Now()
		if err := denseCheck(host, c.nodes, c.edges, c.emb.Map); err != nil {
			out.fail(fmt.Sprintf("commit %d: %v", c.index, err))
		}
		lastCheck = c.index
		ph.pause(time.Since(start))
	}
	for i := range trace {
		e := &trace[i]
		ev := int64(i)
		traced := false
		if i >= sp.warmup {
			var ok bool
			if traced, ok = ph.advance(); !ok {
				break
			}
		}
		out.attempted++
		var (
			emb        *ftnet.Embedding
			mErr, rErr error
		)
		if traced {
			root, start := out.tr.id(), time.Now()
			out.tr.child(root, ev, "ftnet.mutate", func(int64) { mErr = applyFacade(ses, e) })
			out.tr.child(root, ev, "ftnet.reembed", func(int64) { emb, _, rErr = ses.ReembedDelta() })
			out.tr.record(root, 0, ev, out.opRoot, start, time.Now())
		} else {
			start := time.Now()
			mErr = applyFacade(ses, e)
			emb, _, rErr = ses.ReembedDelta()
			if i >= sp.warmup {
				out.ops = append(out.ops, time.Since(start))
			}
		}
		if mErr != nil {
			out.failed++
			fmt.Fprintf(cfg.log, "bench: event %d: mutation: %v\n", i, mErr)
			continue
		}
		var shadowMap []int
		if sh != nil {
			start := time.Now()
			if traced && !caughtUp {
				if err := sh.catchUp(); err != nil {
					out.fail(err.Error())
				}
				caughtUp = true
			}
			sh.apply(e)
			if traced {
				var err error
				if shadowMap, err = sh.eval(out.tr, ev); err != nil {
					out.fail(fmt.Sprintf("event %d: %v", i, err))
				}
			}
			ph.pause(time.Since(start))
		}
		switch {
		case rErr == nil:
		case errors.Is(rErr, ftnet.ErrNotTolerated):
			if traced {
				rejected++
				toggles += e.effToggles
				if shadowMap != nil {
					out.fail(fmt.Sprintf("event %d: facade rejects a set the shadow session commits", i))
				}
			}
			continue
		default:
			out.failed++
			fmt.Fprintf(cfg.log, "bench: event %d: reembed: %v\n", i, rErr)
			continue
		}
		c := commitState{index: commits, emb: emb, nodes: ses.FaultNodes(), edges: ses.FaultEdges()}
		commits++
		if traced {
			start := time.Now()
			toggles += e.effToggles
			switch {
			case shadowMap == nil:
				out.fail(fmt.Sprintf("event %d: facade commits a set the shadow session rejects", i))
			case !slices.Equal(shadowMap, emb.Map):
				out.fail(fmt.Sprintf("event %d: facade map differs from the shadow session's", i))
			}
			ph.pause(time.Since(start))
		}
		if c.index%checkEvery == 0 && !cfg.repeat {
			check(c)
		}
		last = c
	}
	ph.end()
	if last.emb != nil && last.index != lastCheck {
		check(last)
	}
	out.measured = ph.measured
	trace = nil
	out.noteLive()
	runtime.KeepAlive(ses)
	if sh != nil {
		sh.layer(out)
		out.layer["core.rejected"] = float64(rejected)
		out.layer["fault.eff_toggles"] = float64(toggles)
		if last.emb != nil {
			out.layer["ftnet.copy_mb"] = float64(len(last.emb.Map)) * 8 / 1e6
		}
	}
	return out, nil
}
