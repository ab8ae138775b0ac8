// Package churn generates dynamic fault workloads — stochastic fault
// arrivals, repairs, and adversarial clustered bursts over continuous
// time — and drives the Theorem 2 pipeline through them via the
// core.Session delta-evaluation engine.
//
// The paper's model is static: inject a fault set once, build the
// embedding once. Real deployments see faults arrive *and get repaired*
// over a machine's lifetime (cf. the fault-tolerant network constructors
// and Byzantine-churn lines of work in PAPERS.md), so this package models
// the host as a continuous-time Markov process: every healthy node fails
// at rate Arrival, every faulty node is repaired at rate Repair, and —
// optionally — adversarial bursts drop a spatially clustered batch of
// faults at rate BurstRate (reusing the Theorem 3 adversary patterns of
// internal/fault). Events are drawn by Gillespie's direct method, so
// inter-event times and event kinds are exact for the rate triple.
//
// Each churn event mutates the fault set by a recorded delta, which is
// exactly what core.Session consumes: one event costs one incremental
// step — O(fault footprint), not O(N) — instead of a from-scratch
// pipeline run (BenchmarkChurnSession pins the gap). The lifetime driver
// (lifetime.go) steps with Session.Check, which skips the embedding map
// nobody reads there, and runs one loop for every evaluation mode —
// per-event, the from-scratch ablation (a session Reset before each
// Check) and the
// batched placement probe — and folds each event's status into one life
// accumulator, which the coupled repair ladder (ladder.go) keeps per
// rung. Trials aggregate into death-time, death-size and availability
// statistics on parallel.RunLifetime, with the same
// worker-count-independent determinism as every other engine in the
// repository.
package churn

import (
	"math"

	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
	"ftnet/internal/validate"
)

// Process parameterizes the fault-churn stochastic process on a host
// with a fixed node count. Node faults and edge faults (link flaps) are
// independent Poisson populations; either family of rates may be zero.
type Process struct {
	// Arrival is the failure rate of each healthy node (events per node
	// per unit time). The aggregate arrival rate is Arrival * #healthy.
	Arrival float64
	// Repair is the repair rate of each faulty node; 0 disables repair
	// (the pure-aging regime of the mean-faults-to-death experiments).
	Repair float64
	// BurstRate, if positive, adds adversarial burst events at this
	// aggregate rate: each burst places BurstSize clustered faults with
	// the BurstPattern adversary from internal/fault.
	BurstRate float64
	// BurstSize is the number of faults per burst (default 8).
	BurstSize int
	// BurstPattern is the adversary used for bursts. The zero value is
	// fault.Uniform; set fault.Cluster for the densest axis-aligned box.
	BurstPattern fault.Pattern

	// EdgeArrival is the flap rate of each healthy host edge; the
	// aggregate is EdgeArrival * #healthy-edges (the host has
	// n*degree/2 edges, uniformly). Requires a Host-backed generator.
	EdgeArrival float64
	// EdgeRepair is the repair rate of each faulty edge.
	EdgeRepair float64
	// EdgeBurstRate, if positive, adds adversarial clustered edge-burst
	// events at this aggregate rate: each burst fails a ball of
	// EdgeBurstSize edges around a random anchor node — the
	// neighbor-connectivity attack (all charges land on one
	// neighborhood), the edge analogue of the clustered node burst.
	EdgeBurstRate float64
	// EdgeBurstSize is the number of edges per burst (default 8).
	EdgeBurstSize int
}

// HasEdgeEvents reports whether any edge-fault rate is active.
func (p Process) HasEdgeEvents() bool {
	return p.EdgeArrival > 0 || p.EdgeRepair > 0 || p.EdgeBurstRate > 0
}

// Validate checks the rates.
func (p Process) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"churn: arrival rate", p.Arrival},
		{"churn: repair rate", p.Repair},
		{"churn: burst rate", p.BurstRate},
		{"churn: edge arrival rate", p.EdgeArrival},
		{"churn: edge repair rate", p.EdgeRepair},
		{"churn: edge burst rate", p.EdgeBurstRate},
	} {
		if err := validate.Rate(r.name, r.v); err != nil {
			return err
		}
	}
	if p.Arrival == 0 && p.Repair == 0 && p.BurstRate == 0 && !p.HasEdgeEvents() {
		return fterr.New(fterr.Invalid, "churn.Validate", "all rates zero; the process has no events")
	}
	if p.BurstRate > 0 && p.BurstSize < 0 {
		return fterr.New(fterr.Invalid, "churn.Validate", "negative burst size %d", p.BurstSize)
	}
	if p.EdgeBurstRate > 0 && p.EdgeBurstSize < 0 {
		return fterr.New(fterr.Invalid, "churn.Validate", "negative edge burst size %d", p.EdgeBurstSize)
	}
	return nil
}

// Event is one churn step: the simulated time it occurred at and the
// fault-set delta it applied. All slices alias the generator's buffers
// and are valid only until the next NextMixed call.
type Event struct {
	Time    float64
	Added   []int
	Cleared []int
	// EdgeAdded / EdgeCleared are the edge-fault deltas, canonical
	// (U < V).
	EdgeAdded   []fault.Edge
	EdgeCleared []fault.Edge
	// EffAdded / EffCleared are the deltas to the *effective* (charged)
	// node set — node deltas plus charged endpoints, deduplicated by the
	// charger — exactly what core.Session.NoteAdded/NoteCleared consume.
	EffAdded   []int
	EffCleared []int
}

// Host is the host access the generator needs: the node grid for
// clustered bursts and adjacency for edge events. *core.Graph satisfies
// it.
type Host interface {
	NumNodes() int
	Degree() int
	Neighbors(idx int, buf []int) []int
	NodeShape() grid.Shape
}

// Generator draws the event sequence of one trial and applies it to a
// fault.Charger. It owns the delta buffers, so steady-state stepping
// allocates nothing (bursts excepted — they build a pattern set). A
// Generator must not be shared by concurrent trials; call Reset at each
// trial start.
type Generator struct {
	proc     Process
	shape    grid.Shape // host node grid, for spatially structured bursts
	host     Host       // adjacency for edge events
	numEdges int        // n * degree / 2
	now      float64

	added, cleared       []int
	effAdded, effCleared []int
	edgeAdded, edgeClr   []fault.Edge
	nbuf, queue          []int
}

// NewGeneratorHost builds a generator for the process on host h: flat
// node indices are row-major over h.NodeShape(), and h's adjacency
// serves the edge-fault (link flap) event kinds. Pass the core.Graph the
// trials run on.
func NewGeneratorHost(proc Process, h Host) (*Generator, error) {
	if err := proc.Validate(); err != nil {
		return nil, err
	}
	if proc.BurstSize == 0 {
		proc.BurstSize = 8
	}
	if proc.EdgeBurstSize == 0 {
		proc.EdgeBurstSize = 8
	}
	return &Generator{
		proc:     proc,
		shape:    h.NodeShape().Clone(),
		host:     h,
		numEdges: h.NumNodes() * h.Degree() / 2,
	}, nil
}

// Reset rewinds the clock for a new trial.
func (gen *Generator) Reset() { gen.now = 0 }

// Now returns the current simulated time.
func (gen *Generator) Now() float64 { return gen.now }

// NextMixed advances to the next churn event of the mixed node+edge
// process, mutates the charger by its delta, and returns it. Six event
// kinds compete by rate (Gillespie's direct method): node arrival, node
// repair, clustered node burst, edge flap, edge repair, clustered edge
// burst. Any family of rates may be zero; a node-only process draws
// only node events, and its effective deltas equal its node deltas
// (TestNextMixedGolden pins both streams). An error means the process
// is stuck: every competing rate is zero in this state.
//
// The returned Event's EffAdded/EffCleared carry the effective
// (charged) node deltas: feed them to core.Session.NoteAdded/NoteCleared
// and evaluate ch.Effective() — bit-identical to a from-scratch run of
// the charged set.
func (gen *Generator) NextMixed(r rng.Source, ch *fault.Charger) (Event, error) {
	nodes := ch.Nodes()
	n := nodes.Len()
	count := nodes.Count()
	ecount := ch.Edges().Count()
	rateArrival := gen.proc.Arrival * float64(n-count)
	rateRepair := gen.proc.Repair * float64(count)
	rateEdgeArr := gen.proc.EdgeArrival * float64(gen.numEdges-ecount)
	rateEdgeRep := gen.proc.EdgeRepair * float64(ecount)
	total := rateArrival + rateRepair + gen.proc.BurstRate + rateEdgeArr + rateEdgeRep + gen.proc.EdgeBurstRate
	if total <= 0 {
		return Event{}, fterr.New(fterr.Conflict, "churn.NextMixed", "no event possible (%d/%d nodes, %d/%d edges faulty)", count, n, ecount, gen.numEdges)
	}
	// Exponential waiting time; 1-U keeps the argument in (0, 1].
	gen.now += -math.Log(1-r.Float64()) / total
	ev := Event{
		Time:        gen.now,
		Added:       gen.added[:0],
		Cleared:     gen.cleared[:0],
		EdgeAdded:   gen.edgeAdded[:0],
		EdgeCleared: gen.edgeClr[:0],
		EffAdded:    gen.effAdded[:0],
		EffCleared:  gen.effCleared[:0],
	}
	addNode := func(v int) {
		if _, eff := ch.AddNode(v); eff >= 0 {
			ev.EffAdded = append(ev.EffAdded, eff)
		}
		ev.Added = append(ev.Added, v)
	}
	switch u := r.Float64() * total; {
	case u < rateArrival:
		// Uniform healthy node, by rejection: the expected iteration
		// count is n/(n-count), ~1 in every realistic regime.
		for {
			v := r.Intn(n)
			if !nodes.Has(v) {
				addNode(v)
				break
			}
		}
	case u < rateArrival+rateRepair:
		v := nodes.Nth(r.Intn(count))
		if _, eff := ch.ClearNode(v); eff >= 0 {
			ev.EffCleared = append(ev.EffCleared, eff)
		}
		ev.Cleared = append(ev.Cleared, v)
	case u < rateArrival+rateRepair+gen.proc.BurstRate:
		burst, err := fault.Adversarial(gen.proc.BurstPattern, gen.shape, gen.proc.BurstSize, 2, r)
		if err != nil {
			return Event{}, fterr.Wrap(fterr.Invalid, "churn.burst", err)
		}
		burst.ForEach(func(v int) {
			if !nodes.Has(v) {
				addNode(v)
			}
		})
	case u < rateArrival+rateRepair+gen.proc.BurstRate+rateEdgeArr:
		// Uniform healthy edge, by rejection: a uniform node and a uniform
		// neighbor slot hit every undirected edge with equal mass (the
		// host degree is uniform); rejection handles already-faulty draws.
		for {
			a := r.Intn(n)
			gen.nbuf = gen.host.Neighbors(a, gen.nbuf[:0])
			b := gen.nbuf[r.Intn(len(gen.nbuf))]
			if !ch.Edges().Has(a, b) {
				if _, eff := ch.AddEdge(a, b); eff >= 0 {
					ev.EffAdded = append(ev.EffAdded, eff)
				}
				ev.EdgeAdded = append(ev.EdgeAdded, fault.CanonEdge(a, b))
				break
			}
		}
	case u < rateArrival+rateRepair+gen.proc.BurstRate+rateEdgeArr+rateEdgeRep:
		e := ch.Edges().Nth(r.Intn(ecount))
		if _, eff := ch.ClearEdge(e.U, e.V); eff >= 0 {
			ev.EffCleared = append(ev.EffCleared, eff)
		}
		ev.EdgeCleared = append(ev.EdgeCleared, e)
	default:
		gen.edgeBurst(r, ch, &ev)
	}
	gen.added, gen.cleared = ev.Added[:0], ev.Cleared[:0]
	gen.edgeAdded, gen.edgeClr = ev.EdgeAdded[:0], ev.EdgeCleared[:0]
	gen.effAdded, gen.effCleared = ev.EffAdded[:0], ev.EffCleared[:0]
	return ev, nil
}

// edgeBurst fails a clustered ball of up to EdgeBurstSize edges around a
// uniformly random anchor: the anchor's incident edges first, then its
// neighbors', breadth-first. Every charge lands in one neighborhood —
// the neighbor-connectivity adversary, maximally concentrated for the
// charging pass. The burst is smaller only when the explored component
// has no healthy edges left.
func (gen *Generator) edgeBurst(r rng.Source, ch *fault.Charger, ev *Event) {
	size := gen.proc.EdgeBurstSize
	gen.queue = append(gen.queue[:0], r.Intn(gen.host.NumNodes()))
	added := 0
	for qi := 0; qi < len(gen.queue) && added < size; qi++ {
		u := gen.queue[qi]
		gen.nbuf = gen.host.Neighbors(u, gen.nbuf[:0])
		for _, v := range gen.nbuf {
			if added >= size {
				break
			}
			if ch.Edges().Has(u, v) {
				continue
			}
			if _, eff := ch.AddEdge(u, v); eff >= 0 {
				ev.EffAdded = append(ev.EffAdded, eff)
			}
			ev.EdgeAdded = append(ev.EdgeAdded, fault.CanonEdge(u, v))
			gen.queue = append(gen.queue, v)
			added++
		}
	}
}
