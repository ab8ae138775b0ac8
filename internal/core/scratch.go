package core

import (
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/torus"
)

// Scratch holds the per-call working memory of the Theorem 2 pipeline —
// the fault bitset, the placement buffers, and the dense extraction's row
// maps, BFS queue, embedding and injectivity bitmap — so a Monte-Carlo
// worker can run trials back to back without re-allocating the ~N-sized
// buffers each time. Every buffer is one call's: the next call
// overwrites it. The parallel trial engine creates one Scratch per worker
// (Options.NewScratch) and hands it to every trial.
//
// A Scratch holds no committed state. A Session keeps its own commit and
// embedding map (session.go) and borrows the scratch's buffers only
// during an Eval or Check, so a dense call on the scratch leaves every
// session's commit alone. ContainTorus with a Scratch runs one trial
// (Reset + Eval) on a Session the scratch keeps for its graph.
//
// Ownership: a dense Result produced with a Scratch aliases its buffers
// (Result.Embedding) and is valid only until the next dense call on the
// same Scratch; a Session's Result aliases the Session and is valid
// until its next Eval, Check or Reset (Session.Eval). Clone anything
// that must outlive the trial. A Scratch must never be shared by
// concurrently running calls.
type Scratch struct {
	faults *fault.Set
	ses    *Session // the session ContainTorus drives (sessionFor)

	// Dense-pipeline buffers: the extraction's row maps, BFS queue and
	// embedding, and the verifier's injectivity bitmap.
	rowflat []int32
	rowmap  [][]int32
	queue   []int
	seen    []bool
	emb     *embed.Embedding

	// Placement buffers. tileSeen is the dense faulty-tile table over the
	// tile grid: faultyTiles numbers the sorted faulty tiles 1, 2, … in
	// it, initialBoxes looks Chebyshev neighbors up in it and zeroes the
	// entries again, so it is all-zero between calls.
	tileSeen    []int32
	tileList    []int
	tileGroup   []int32 // initialBoxes: union-find parents, component numbers, buckets
	tileCoords  []int   // initialBoxes: each faulty tile's coordinates, then one dimension's cover input
	coordA      []int   // faultyTiles, initialBoxes and assignFaultRows coordinate buffers
	coordB      []int
	pinnedVals  [][]float64 // dense pinned-corner table (kept all-nil)
	pinnedKeys  []int
	localsArena []float64 // backing for the per-(box,slab) pinned locals
	usedRes     []bool    // pigeonhole residue classes
	segMerge    []int     // padBox sorted-merge buffer
	eval        *colEval
	fpStarts    []int
	fpCounts    []int
	fpCoord     []int
	cornerCoord []int // buildPinned corner odometer

	// Extraction buffers.
	consDst  []int32     // the dense consistency check's transfer target
	movedBuf []movedBand // transferFast's moved-band list
}

// NewScratch returns an empty Scratch; every buffer grows on first use.
// Its arguments are ignored: they keep compiling the callers written
// against the former worker-count parameter.
func NewScratch(...int) *Scratch { return new(Scratch) }

// sessionFor returns the scratch's own session on g, replacing it when
// the scratch moves to another graph.
func (sc *Scratch) sessionFor(g *Graph) *Session {
	if sc.ses == nil || sc.ses.g != g {
		sc.ses = g.NewSession(sc, ExtractOptions{})
	}
	return sc.ses
}

// Faults returns an empty fault set over n nodes, reusing the previous
// allocation when the universe size matches.
func (sc *Scratch) Faults(n int) *fault.Set {
	if sc.faults == nil || sc.faults.Len() != n {
		sc.faults = fault.NewSet(n)
	} else {
		sc.faults.Clear()
	}
	return sc.faults
}

// grow returns buf resliced to length n, or a new zeroed slice of
// length n when buf's capacity is short. A reused buffer keeps what the
// last call left in it.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rowBuffers returns numCols nil'd row-map headers plus their flat
// backing array of numCols*n int32s for the dense extraction.
func (sc *Scratch) rowBuffers(numCols, n int) ([][]int32, []int32) {
	sc.rowmap = grow(sc.rowmap, numCols)
	clear(sc.rowmap)
	sc.rowflat = grow(sc.rowflat, numCols*n)
	return sc.rowmap, sc.rowflat
}

// seenBuf returns a false-filled bool slice of length n for the dense
// verifier's injectivity check.
func (sc *Scratch) seenBuf(n int) []bool {
	sc.seen = grow(sc.seen, n)
	clear(sc.seen)
	return sc.seen
}

// embedding returns a reusable embedding onto guest for the dense
// extraction.
func (sc *Scratch) embedding(guest *torus.Graph) *embed.Embedding {
	if sc.emb == nil || sc.emb.Guest != guest {
		sc.emb = embed.New(guest)
	}
	return sc.emb
}

// groupBufs returns initialBoxes' work slices for k faulty tiles of a
// d-dimensional tile grid: union-find parents, component numbers, the
// tiles bucketed by component and the bucket ends (k entries each), the
// tiles' coordinates (k·d) and one dimension's cover input (k).
func (sc *Scratch) groupBufs(k, d int) (parent, comp, members, ends []int32, coords, cover []int) {
	sc.tileGroup, sc.tileCoords = grow(sc.tileGroup, 4*k), grow(sc.tileCoords, k*(d+1))
	g, c := sc.tileGroup, sc.tileCoords
	return g[:k], g[k : 2*k], g[2*k : 3*k], g[3*k:], c[:k*d], c[k*d:]
}

// usedBuf returns a false-filled bool slice of length n for the
// pigeonhole residue-class scan.
func (sc *Scratch) usedBuf(n int) []bool {
	sc.usedRes = grow(sc.usedRes, n)
	clear(sc.usedRes)
	return sc.usedRes
}

// pinnedBuf returns the all-nil pinned-corner table of the given size
// plus the empty key list used to re-clear it next trial. The caller
// stores the grown key list back in sc.pinnedKeys. The previous trial's
// keys are cleared against the table's full capacity, not the requested
// size: a Scratch may move to a smaller graph, whose table reuses the
// same backing while stale keys still point above it.
func (sc *Scratch) pinnedBuf(size int) ([][]float64, []int) {
	if cap(sc.pinnedVals) < size {
		sc.pinnedVals = make([][]float64, size)
		sc.pinnedKeys = sc.pinnedKeys[:0]
	}
	sc.pinnedVals = sc.pinnedVals[:cap(sc.pinnedVals)]
	for _, k := range sc.pinnedKeys {
		sc.pinnedVals[k] = nil
	}
	sc.pinnedKeys = sc.pinnedKeys[:0]
	sc.localsArena = sc.localsArena[:0]
	return sc.pinnedVals[:size], sc.pinnedKeys
}

// localsSlice returns a zeroed float64 slice of length per from the
// trial-lifetime arena. Slices stay valid after arena growth (old
// backing arrays are simply retired).
func (sc *Scratch) localsSlice(per int) []float64 {
	n := len(sc.localsArena)
	if n+per > cap(sc.localsArena) {
		grown := make([]float64, n, 2*(n+per))
		copy(grown, sc.localsArena)
		sc.localsArena = grown
	}
	sc.localsArena = sc.localsArena[:n+per]
	out := sc.localsArena[n : n+per : n+per]
	for i := range out {
		out[i] = 0
	}
	return out
}

// colEvalBuf returns a reusable column evaluator rebound to this trial's
// pinned table and defaults.
func (sc *Scratch) colEvalBuf(g *Graph, defaults []float64, pinned [][]float64, cornerShape grid.Shape) *colEval {
	ev := sc.eval
	if ev == nil || ev.d1 != g.P.D-1 || ev.per != g.P.PerSlab() || ev.t != g.P.Tile() || ev.numCorners != cornerShape.Size() {
		sc.eval = newColEval(g, defaults, pinned, cornerShape)
		return sc.eval
	}
	ev.defaults = defaults
	ev.pinned = pinned
	ev.colShape = g.ColShape
	ev.cornerShape = cornerShape
	ev.colTiles = g.P.ColTiles()
	return ev
}
