// Package supernode implements A^d_n, the paper's Theorem 1 construction:
// an O(log log N)-degree network with c*n^d nodes that, after every node
// fails with constant probability p and every edge with constant
// probability q, still contains a fault-free d-dimensional n-torus with
// probability 1 - n^{-Omega(log log n)}.
//
// Construction (paper, Section 4): take B^d_{n/k} (internal/core) and
// replace every node by a clique of h = c k^2/(1+eps) nodes (a supernode);
// adjacent supernodes are joined completely, so the degree is
// O(h) = O(k^2) = O(log log n) for k = sqrt(alpha log log n).
//
// Survival argument, implemented literally:
//   - a node v is GOOD if it is non-faulty and, for its own and every
//     adjacent supernode U, at most 2*sqrt(q)*h of v's half-edges toward U
//     are faulty (the half-edge trick makes supernode goodness independent);
//   - a supernode is GOOD if it has at least k^d + 2d*(2*sqrt(q)*h) good
//     nodes;
//   - Theorem 2 applied to the supernode-level fault set yields an
//     (n/k)-torus of good supernodes;
//   - the n-torus is divided into k x ... x k submeshes M_I, and a greedy
//     incremental map f places each guest node into an unused good node of
//     its supernode U_I so that all edges to previously placed neighbors
//     are fault-free; goodness guarantees a valid choice always exists.
package supernode

import (
	"fmt"
	"math"

	"ftnet/internal/core"
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
	"ftnet/internal/torus"
)

// Params fixes an instance of A^d_n.
type Params struct {
	Base core.Params // parameters of the underlying B^d_{n/k}
	K    int         // submesh side k >= 1 (paper: sqrt(alpha log log n))
	H    int         // supernode size h (paper: c k^2/(1+eps))
	Q    float64     // assumed edge-failure probability (sets goodness thresholds)
}

// Validate checks that the goodness thresholds are satisfiable.
func (p Params) Validate() error {
	if err := p.Base.Validate(); err != nil {
		return err
	}
	if p.K < 1 {
		return fmt.Errorf("supernode: k = %d < 1", p.K)
	}
	if p.Q < 0 || p.Q >= 1 {
		return fmt.Errorf("supernode: q = %v out of [0,1)", p.Q)
	}
	if p.H < p.GoodSupernodeThreshold() {
		return fmt.Errorf("supernode: h = %d below good-supernode threshold %d (k^d + 4d*sqrt(q)*h); increase h or decrease q",
			p.H, p.GoodSupernodeThreshold())
	}
	return nil
}

// Side returns the guest torus side n = k * nB.
func (p Params) Side() int { return p.K * p.Base.N() }

// NumSupernodes returns the node count of the underlying B^d_{n/k}.
func (p Params) NumSupernodes() int { return p.Base.NumNodes() }

// NumNodes returns the total node count h * |B^d_{n/k}| = c n^d.
func (p Params) NumNodes() int { return p.H * p.NumSupernodes() }

// C returns the node-redundancy constant c with |A| = c n^d.
func (p Params) C() float64 {
	return float64(p.NumNodes()) / math.Pow(float64(p.Side()), float64(p.Base.D))
}

// Degree returns the uniform degree (h-1) + (6d-2)h.
func (p Params) Degree() int { return p.H - 1 + p.Base.Degree()*p.H }

// HalfEdgeThreshold returns ceil(2*sqrt(q)*h), the per-supernode faulty
// half-edge budget in the goodness definition.
func (p Params) HalfEdgeThreshold() int {
	return int(math.Ceil(2 * math.Sqrt(p.Q) * float64(p.H)))
}

// GoodSupernodeThreshold returns k^d + 2d*ceil(2*sqrt(q)*h), the number of
// good nodes a good supernode must have. (For d=2 this is the paper's
// k^2 + (8*sqrt(q))h.)
func (p Params) GoodSupernodeThreshold() int {
	kd := 1
	for i := 0; i < p.Base.D; i++ {
		kd *= p.K
	}
	return kd + 2*p.Base.D*p.HalfEdgeThreshold()
}

// FitParams derives A^d_n parameters the way Theorem 1 does: given the
// target minimum side, node probability p, edge probability q and
// redundancy c > 1/(1-p), it picks k ~ sqrt(alpha*log log n), eps
// satisfying (1-p) > (1+eps)/c + 8 sqrt(q), and h = c k^2/(1+eps).
func FitParams(d, minSide int, pNode, q, c float64) (Params, error) {
	if pNode < 0 || pNode >= 1 {
		return Params{}, fmt.Errorf("supernode: p = %v out of [0,1)", pNode)
	}
	if c <= 1/(1-pNode) {
		return Params{}, fmt.Errorf("supernode: c = %v must exceed 1/(1-p) = %v", c, 1/(1-pNode))
	}
	slack := (1 - pNode) - 1/c - 8*math.Sqrt(q)
	if slack <= 0 {
		return Params{}, fmt.Errorf("supernode: q = %v too large: (1-p) - 1/c - 8*sqrt(q) = %v <= 0", q, slack)
	}
	// eps with (1+eps)/c + 8 sqrt(q) < 1-p, capped at 1/2 for Theorem 2.
	eps := math.Min(0.5, c*slack/2)
	// k ~ sqrt(log log n): tiny at any simulable scale.
	k := int(math.Max(2, math.Round(math.Sqrt(math.Log2(math.Log2(float64(minSide)+4)+4)+4))))
	base, err := core.FitParams(d, (minSide+k-1)/k, eps)
	if err != nil {
		return Params{}, err
	}
	kd := 1.0
	for i := 0; i < d; i++ {
		kd *= float64(k)
	}
	h := int(math.Ceil(c * kd / (1 + base.Eps())))
	p := Params{Base: base, K: k, H: h, Q: q}
	// Grow h until (a) the goodness thresholds fit and (b) the expected
	// number of bad supernodes is well below 1, so the supernode-level
	// fault rate sits inside Theorem 2's tolerance. Asymptotically both
	// hold at h = c k^2/(1+eps) (the paper's alpha-tuning); at finite
	// sizes the Chernoff constants must be paid explicitly.
	numSuper := float64(p.NumSupernodes())
	for ; p.H < 4096; p.H++ {
		if p.H < p.GoodSupernodeThreshold() {
			continue
		}
		if p.badSupernodeProb(pNode)*numSuper <= 0.25 {
			break
		}
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// badSupernodeProb estimates P(supernode not good) for node-failure
// probability pNode: a node is good when non-faulty and within the
// half-edge budget toward each of the 6d-1 relevant supernodes.
func (p Params) badSupernodeProb(pNode float64) float64 {
	goodRate := 1 - pNode
	if p.Q > 0 {
		perSuper := stats.BinomTail(p.H, math.Sqrt(p.Q), p.HalfEdgeThreshold()+1)
		goodRate *= math.Pow(1-perSuper, float64(p.Base.Degree()+1))
	}
	// Bad: fewer than the threshold good nodes among H.
	return 1 - stats.BinomTail(p.H, goodRate, p.GoodSupernodeThreshold())
}

// Graph is the host network A^d_n. Node v belongs to supernode v/H at
// slot v%H. Adjacency: same supernode (clique) or adjacent supernodes
// (complete join), where supernode adjacency is B^d_{n/k} adjacency.
type Graph struct {
	P    Params
	Base *core.Graph
}

// NewGraph validates the parameters and builds the host description.
func NewGraph(p Params) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base, err := core.NewGraph(p.Base)
	if err != nil {
		return nil, err
	}
	return &Graph{P: p, Base: base}, nil
}

// NumNodes returns the host node count.
func (g *Graph) NumNodes() int { return g.P.NumNodes() }

// Supernode returns the supernode id of node v.
func (g *Graph) Supernode(v int) int { return v / g.P.H }

// Adjacent reports host adjacency.
func (g *Graph) Adjacent(u, v int) bool {
	if u == v {
		return false
	}
	su, sv := g.Supernode(u), g.Supernode(v)
	if su == sv {
		return true
	}
	return g.Base.Adjacent(su, sv)
}

// FaultState carries the random faults of one trial: a node fault set and
// a lazily evaluated edge-fault oracle.
type FaultState struct {
	Nodes *fault.Set
	Edges *fault.Oracle
}

// NewFaultState draws node faults with probability pNode (using r) and
// configures the edge oracle with the graph's q and the given seed.
func (g *Graph) NewFaultState(seed uint64, pNode float64, r rng.Source) *FaultState {
	nodes := fault.NewSet(g.NumNodes())
	nodes.Bernoulli(r, pNode)
	return &FaultState{Nodes: nodes, Edges: fault.NewOracle(seed, g.P.Q)}
}

// goodNodes computes the good-node bitset (paper, Section 4).
func (g *Graph) goodNodes(fs *FaultState) *fault.Set {
	h := g.P.H
	thresh := g.P.HalfEdgeThreshold()
	good := fault.NewSet(g.NumNodes())
	nbuf := make([]int, 0, g.Base.Degree())
	numSuper := g.P.NumSupernodes()
	for s := 0; s < numSuper; s++ {
		nbuf = g.Base.Neighbors(s, nbuf[:0])
		for slot := 0; slot < h; slot++ {
			v := s*h + slot
			if fs.Nodes.Has(v) {
				continue
			}
			if g.P.Q == 0 {
				good.Add(v)
				continue
			}
			ok := true
			// Own supernode, then each adjacent supernode.
			if g.countFaultyHalfEdges(fs, v, s, thresh) > thresh {
				ok = false
			}
			for _, u := range nbuf {
				if !ok {
					break
				}
				if g.countFaultyHalfEdges(fs, v, u, thresh) > thresh {
					ok = false
				}
			}
			if ok {
				good.Add(v)
			}
		}
	}
	return good
}

// countFaultyHalfEdges counts v's faulty half-edges toward supernode u,
// early-exiting once the threshold is exceeded.
func (g *Graph) countFaultyHalfEdges(fs *FaultState, v, u, thresh int) int {
	h := g.P.H
	base := u * h
	count := 0
	for t := base; t < base+h; t++ {
		if t == v {
			continue
		}
		if fs.Edges.HalfEdgeFaulty(v, t) {
			count++
			if count > thresh {
				return count
			}
		}
	}
	return count
}

// Stats reports per-trial diagnostics from Embed.
type Stats struct {
	GoodNodes       int
	GoodSupernodes  int
	BadSupernodes   int
	SupernodeReport *core.PlaceReport
}

// Embed runs the full Theorem 1 pipeline and returns a verified embedding
// of the n-torus, or an error. A *core.UnhealthyError (wrapped) means the
// supernode-level fault pattern exceeded Theorem 2's tolerance; an
// ErrNoCandidate means the greedy placement died (cannot happen when the
// goodness accounting is right — it is surfaced separately to catch bugs).
func (g *Graph) Embed(fs *FaultState) (*embed.Embedding, *Stats, error) {
	p := g.P
	h := p.H
	st := &Stats{}
	good := g.goodNodes(fs)
	st.GoodNodes = good.Count()

	// Supernode-level faults for Theorem 2.
	numSuper := p.NumSupernodes()
	superFaults := fault.NewSet(numSuper)
	threshold := p.GoodSupernodeThreshold()
	for s := 0; s < numSuper; s++ {
		if good.CountRange(s*h, (s+1)*h) < threshold {
			superFaults.Add(s)
			st.BadSupernodes++
		}
	}
	st.GoodSupernodes = numSuper - st.BadSupernodes

	res, err := g.Base.ContainTorus(superFaults, core.ExtractOptions{})
	if err != nil {
		return nil, st, fmt.Errorf("supernode torus: %w", err)
	}
	st.SupernodeReport = res.Report

	// Greedy incremental placement f over the n-torus in row-major order.
	n := p.Side()
	d := p.Base.D
	guest, err := torus.NewUniform(torus.TorusKind, d, n)
	if err != nil {
		return nil, st, err
	}
	nB := p.Base.N()
	baseShape := grid.Uniform(d, nB)
	e := embed.New(guest)
	used := fault.NewSet(g.NumNodes()) // host nodes already images of f
	gc := make([]int, d)
	ic := make([]int, d)
	constraints := make([]int, 0, 2*d)
	for gi := 0; gi < guest.N(); gi++ {
		guest.Shape.Coord(gi, gc)
		for j, x := range gc {
			ic[j] = x / p.K
		}
		super := res.Embedding.Map[baseShape.Index(ic)]
		// Previously placed guest neighbors (row-major: -1 steps always,
		// +1 steps only across the wrap).
		constraints = constraints[:0]
		for j, x := range gc {
			prev := gc[j]
			gc[j] = grid.Sub(x, 1, n)
			if lower := guest.Shape.Index(gc); lower < gi {
				constraints = append(constraints, e.Map[lower])
			}
			gc[j] = grid.Add(x, 1, n)
			if upper := guest.Shape.Index(gc); upper < gi {
				constraints = append(constraints, e.Map[upper])
			}
			gc[j] = prev
		}
		chosen := -1
		for slot := 0; slot < h; slot++ {
			v := super*h + slot
			if !good.Has(v) || used.Has(v) {
				continue
			}
			ok := true
			for _, u := range constraints {
				if fs.Edges.EdgeFaulty(v, u) {
					ok = false
					break
				}
			}
			if ok {
				chosen = v
				break
			}
		}
		if chosen < 0 {
			return nil, st, fmt.Errorf("supernode: %w at guest node %d", ErrNoCandidate, gi)
		}
		used.Add(chosen)
		e.Map[gi] = chosen
	}

	if err := e.Verify(g, fs.Nodes, fs.Edges.EdgeFaulty); err != nil {
		return nil, st, err
	}
	return e, st, nil
}

// ErrNoCandidate reports that the greedy placement found a supernode with
// no usable good node — impossible when h respects the goodness
// thresholds, so its appearance indicates a bug or a mis-parameterized
// instance.
var ErrNoCandidate = fmt.Errorf("no fault-free candidate node in supernode")
