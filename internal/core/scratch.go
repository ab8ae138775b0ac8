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
	// Workers bounds the *inner* parallelism of the dense band
	// interpolation. Trials dispatched by the parallel engine should set
	// it to 1: the pool already saturates the CPUs, and per-trial
	// goroutine fan-out would only add oversubscription. 0 means
	// GOMAXPROCS (the default serial-caller behavior). The delta engine
	// is always serial (its work is footprint-sized).
	Workers int

	faults *fault.Set
	ses    *Session // the session ContainTorus drives (sessionFor)

	// Dense-pipeline buffers: the extraction's row maps, BFS queue and
	// embedding, and the verifier's injectivity bitmap.
	rowflat []int32
	rowmap  [][]int32
	queue   []int
	seen    []bool
	emb     *embed.Embedding

	// Placement buffers.
	tileSeen    []bool // faultyTiles dedupe bitmap (kept all-false)
	tileList    []int
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

// NewScratch returns a Scratch whose dense interpolation stage uses at
// most workers goroutines (0 = GOMAXPROCS).
func NewScratch(workers int) *Scratch { return &Scratch{Workers: workers} }

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

// rowBuffers returns numCols nil'd row-map headers plus their flat
// backing array of numCols*n int32s for the dense extraction.
func (sc *Scratch) rowBuffers(numCols, n int) ([][]int32, []int32) {
	if cap(sc.rowmap) < numCols {
		sc.rowmap = make([][]int32, numCols)
	}
	sc.rowmap = sc.rowmap[:numCols]
	for i := range sc.rowmap {
		sc.rowmap[i] = nil
	}
	if cap(sc.rowflat) < numCols*n {
		sc.rowflat = make([]int32, numCols*n)
	}
	return sc.rowmap, sc.rowflat[:numCols*n]
}

// queueBuf returns an empty int slice with at least the given capacity.
func (sc *Scratch) queueBuf(capacity int) []int {
	if cap(sc.queue) < capacity {
		sc.queue = make([]int, 0, capacity)
	}
	return sc.queue[:0]
}

// seenBuf returns a false-filled bool slice of length n for the dense
// verifier's injectivity check.
func (sc *Scratch) seenBuf(n int) []bool {
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
		return sc.seen
	}
	sc.seen = sc.seen[:n]
	for i := range sc.seen {
		sc.seen[i] = false
	}
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

// tileSeenBuf returns an all-false bitmap over the tile grid. Callers
// must clear the bits they set before returning (faultyTiles does), so
// the all-false invariant costs O(faulty tiles), not O(tiles).
func (sc *Scratch) tileSeenBuf(numTiles int) []bool {
	if cap(sc.tileSeen) < numTiles {
		sc.tileSeen = make([]bool, numTiles)
	}
	return sc.tileSeen[:numTiles]
}

// usedBuf returns a false-filled bool slice of length n for the
// pigeonhole residue-class scan.
func (sc *Scratch) usedBuf(n int) []bool {
	if cap(sc.usedRes) < n {
		sc.usedRes = make([]bool, n)
		return sc.usedRes[:n]
	}
	buf := sc.usedRes[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
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

// cornerCoordBuf returns the (d-1)-sized work slice for buildPinned's
// corner odometer.
func (sc *Scratch) cornerCoordBuf(d1 int) []int {
	if cap(sc.cornerCoord) < d1 {
		sc.cornerCoord = make([]int, d1)
	}
	return sc.cornerCoord[:d1]
}

// footprintBufs returns three d1-sized work slices for the footprint
// odometer.
func (sc *Scratch) footprintBufs(d1 int) (starts, counts, coord []int) {
	if cap(sc.fpStarts) < d1 {
		sc.fpStarts = make([]int, d1)
		sc.fpCounts = make([]int, d1)
		sc.fpCoord = make([]int, d1)
	}
	return sc.fpStarts[:d1], sc.fpCounts[:d1], sc.fpCoord[:d1]
}

// dstBuf returns a length-n int32 buffer for the consistency check.
func (sc *Scratch) dstBuf(n int) []int32 {
	if cap(sc.consDst) < n {
		sc.consDst = make([]int32, n)
	}
	return sc.consDst[:n]
}
