package core

import (
	"ftnet/internal/bands"
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
)

// ExtractOptions tunes the Lemma 6 extraction.
type ExtractOptions struct {
	// CheckConsistency re-derives the row mapping across every non-tree
	// column adjacency and demands agreement: the executable analogue of
	// Lemma 7 (path independence of P_{i,pi}). Costs one extra pass over
	// all columns; enabled in tests, off in benchmarks.
	CheckConsistency bool
	// Dense forces the whole-host pipeline even when a Scratch is
	// supplied: dense interpolation, full-BFS extraction and whole-graph
	// verification, each O(N) per trial. It is the oracle and ablation
	// for the delta engine (Session, session.go), which ContainTorus runs
	// by default whenever a Scratch is supplied; the golden equivalence
	// tests assert the two produce bit-identical results.
	Dense bool
	// Scratch, if non-nil, supplies reusable buffers for placement,
	// extraction and verification, and bounds the pipeline's inner
	// parallelism (see Scratch). The returned Result then aliases the
	// scratch and is only valid until its next use.
	Scratch *Scratch
}

// Extract realizes Lemma 6: given a valid family of (m-n)/b untouching
// bands, it constructs the isomorphism psi from (C_n)^d onto the unmasked
// part of B^d_n. Columns become the n unmasked nodes of each host column
// (closed into a cycle by torus edges and vertical jumps); rows are grown
// by the path-transfer rule of Lemma 6, jumping +-b over bands via the
// diagonal jump edges.
//
// The returned embedding maps guest node (i, z) of the n-torus to host
// node (psi_z(i), z). Callers should verify it with embed.Verify against
// the faulty host.
//
// This is the dense extraction: one BFS over every column, O(N). It is
// the oracle the delta engine's extractIncremental is pinned against.
func (g *Graph) Extract(bs *bands.Set, opts ExtractOptions) (*embed.Embedding, error) {
	p := g.P
	n := p.N()
	numCols := g.NumCols
	if bs.K() != p.K() {
		return nil, fterr.New(fterr.Internal, "core", "band family has %d bands, want %d", bs.K(), p.K())
	}

	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch(0)
	}
	// Unmasked rows per column, in cyclic order anchored above band 0.
	// With a scratch, the per-column row slices live in one flat backing
	// array reused across trials.
	rowmap, rowflat := sc.rowBuffers(numCols, n)
	rowmap[0] = bs.UnmaskedRows(0, rowflat[:0:n])
	if len(rowmap[0]) != n {
		return nil, fterr.New(fterr.Internal, "core", "column 0 has %d unmasked rows, want %d", len(rowmap[0]), n)
	}

	// BFS over the column torus.
	queue := append(sc.queueBuf(numCols), 0)
	for head := 0; head < len(queue); head++ {
		z := queue[head]
		for _, zn32 := range g.columnNeighbors(z) {
			zn := int(zn32)
			if rowmap[zn] != nil || zn == 0 {
				continue
			}
			dst := rowflat[zn*n : (zn+1)*n]
			if err := g.transferRows(bs, z, zn, rowmap[z], dst); err != nil {
				return nil, err
			}
			rowmap[zn] = dst
			queue = append(queue, zn)
		}
	}
	if len(queue) != numCols {
		return nil, fterr.New(fterr.Internal, "core", "column BFS reached %d of %d columns", len(queue), numCols)
	}

	if opts.CheckConsistency {
		dst := sc.dstBuf(n)
		for z := 0; z < numCols; z++ {
			nbrs := g.columnNeighbors(z)
			for dim := range g.ColShape {
				zn := int(nbrs[2*dim]) // the +1 neighbor along dim
				if err := g.transferRows(bs, z, zn, rowmap[z], dst); err != nil {
					return nil, err
				}
				for i := range dst {
					if dst[i] != rowmap[zn][i] {
						return nil, fterr.New(fterr.Internal, "core", "Lemma 7 violation: row %d disagrees across columns %d -> %d (%d vs %d)",
							i, z, zn, dst[i], rowmap[zn][i])
					}
				}
			}
		}
	}

	e := sc.embedding(g.guest)
	for z := 0; z < numCols; z++ {
		rows := rowmap[z]
		for i := 0; i < n; i++ {
			e.Map[i*numCols+z] = int(rows[i])*numCols + z
		}
	}
	return e, nil
}

// transferRows grows the Lemma 6 row mapping from column zFrom to the
// adjacent column zTo: rows that fall onto a band that slid by one step
// jump ±W over it (paper cases (a)/(b)); everything else carries over.
func (g *Graph) transferRows(bs *bands.Set, zFrom, zTo int, src, dst []int32) error {
	m := g.P.M()
	w := g.P.W
	for i, r32 := range src {
		r := int(r32)
		band := bs.MaskedBy(zTo, r)
		if band < 0 {
			dst[i] = r32
			continue
		}
		bTo := bs.Value(band, zTo)
		bFrom := bs.Value(band, zFrom)
		switch {
		case bTo == grid.Sub(bFrom, 1, m):
			// The band slid down by one: the row just fell onto the
			// band's bottom; jump upward over it (paper case (a)).
			dst[i] = int32(grid.Add(r, w, m))
		case bTo == grid.Add(bFrom, 1, m):
			// The band slid up by one: the row fell onto the band's
			// top; jump downward (paper case (b)).
			dst[i] = int32(grid.Sub(r, w, m))
		default:
			return fterr.New(fterr.Internal, "core", "band %d masks row %d at column %d yet did not move from column %d (bottoms %d -> %d)",
				band, r, zTo, zFrom, bFrom, bTo)
		}
	}
	return nil
}

// HostView adapts a faulty B^d_n to the embed.Host interface. Edges is
// the (possibly nil) set of faulty host edges: the placement pipeline
// itself never consults it — Theorem 2 charges every edge fault to an
// endpoint and evaluates the charged *node* set — but an edge-aware view
// lets embed.Verify independently confirm the charging argument, that an
// embedding avoiding all charged nodes uses no faulty edge.
//
// Construct views with NewHostView so call sites cannot silently omit
// the edge-fault field when they have one.
type HostView struct {
	G      *Graph
	Faults *fault.Set
	Edges  *fault.EdgeSet
}

// NewHostView builds the embed.Host view of a faulty B^d_n. faults is
// the node-fault set the embedding was verified against (for an
// edge-fault workload, the *effective* charged set — see fault.Charger);
// edges may be nil when the workload has no edge faults.
func NewHostView(g *Graph, faults *fault.Set, edges *fault.EdgeSet) HostView {
	return HostView{G: g, Faults: faults, Edges: edges}
}

// NumNodes implements embed.Host.
func (h HostView) NumNodes() int { return h.G.NumNodes() }

// Adjacent implements embed.Host.
func (h HostView) Adjacent(u, v int) bool { return h.G.Adjacent(u, v) }

// NodeFaulty implements embed.Host.
func (h HostView) NodeFaulty(u int) bool { return h.Faults.Has(u) }

// EdgeFaulty implements embed.Host.
func (h HostView) EdgeFaulty(u, v int) bool { return h.Edges != nil && h.Edges.Has(u, v) }

// Result bundles a successful survival proof for one faulty instance.
type Result struct {
	Bands     *bands.Set
	Embedding *embed.Embedding
	Report    *PlaceReport
}

// ContainTorus runs the full Theorem 2 pipeline on a faulty instance:
// place bands, extract the torus, and verify the embedding independently.
// An *UnhealthyError means the fault pattern exceeded what the
// construction tolerates (a survival failure); any other error is a bug.
// With opts.Scratch set, the trial is Reset + Eval on the delta engine
// the scratch keeps for g: cost proportional to the fault footprint, not
// the host size, and the Result aliases that session until the next such
// trial on the scratch. Eval also brings the session's embedding map up
// to date (the first trial on a scratch allocates it); a caller that
// only needs the outcome steps its own Session with Check instead. opts.Dense, opts.CheckConsistency or a nil
// Scratch select the dense whole-host pipeline instead; its Result
// aliases the scratch until the next dense call on it (see Scratch), and
// without a scratch it allocates fresh buffers.
func (g *Graph) ContainTorus(faults *fault.Set, opts ExtractOptions) (*Result, error) {
	if sc := opts.Scratch; sc != nil && !opts.Dense && !opts.CheckConsistency {
		ses := sc.sessionFor(g)
		ses.Reset()
		return ses.Eval(faults)
	}
	return g.containDense(faults, opts)
}

// containDense is the dense pipeline — placement, extraction and
// verification, each O(N) — on opts.Scratch's buffers, or on a fresh
// scratch's when none is set.
func (g *Graph) containDense(faults *fault.Set, opts ExtractOptions) (*Result, error) {
	if opts.Scratch == nil {
		opts.Scratch = NewScratch(0)
	}
	bs, rep, err := g.placeBands(faults, opts.Scratch)
	if err != nil {
		return nil, err
	}
	emb, err := g.Extract(bs, opts)
	if err != nil {
		return nil, err
	}
	host := NewHostView(g, faults, nil)
	if err := emb.VerifyBuf(host, opts.Scratch.seenBuf(g.NumNodes())); err != nil {
		return nil, err
	}
	return &Result{Bands: bs, Embedding: emb, Report: rep}, nil
}
