package core

import (
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/torus"
)

// Scratch holds the per-trial working memory of the Theorem 2 pipeline —
// the fault bitset, the extraction's row maps and BFS queue, the guest
// torus, the embedding, and the verifiers' bitmaps — so a Monte-Carlo
// worker can run trials back to back without re-allocating the ~N-sized
// buffers each time. The parallel trial engine creates one Scratch per
// worker (Options.NewScratch) and hands it to every trial.
//
// Beyond buffer reuse, a Scratch holds the committed state of the delta
// engine (Session, session.go): the row-map headers and the embedding
// stay seeded with the graph's default template between trials, and a
// trial restores only the columns the previous one left deviating before
// writing its own. ContainTorus with a Scratch runs one trial on a
// Session the scratch keeps for its graph.
//
// Ownership: a Result produced with a Scratch aliases its buffers —
// including Result.Bands and Result.Embedding — and is valid only until
// the next call that uses the same Scratch; clone anything that must
// outlive the trial. A Scratch must never be shared by concurrently
// running calls.
//
// All methods accept a nil receiver and then allocate fresh buffers, so
// pipeline code calls them unconditionally whether or not the caller
// supplied a scratch.
type Scratch struct {
	// Workers bounds the *inner* parallelism of the dense band
	// interpolation. Trials dispatched by the parallel engine should set
	// it to 1: the pool already saturates the CPUs, and per-trial
	// goroutine fan-out would only add oversubscription. 0 means
	// GOMAXPROCS (the default serial-caller behavior). The delta engine
	// is always serial (its work is footprint-sized).
	Workers int

	faults  *fault.Set
	rowflat []int32
	rowmap  [][]int32
	queue   []int
	seen    []bool
	guest   *torus.Graph
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
	consDst  []int32
	movedBuf []movedBand

	// Delta-engine state. While owner is non-nil the buffers describe
	// owner's last commit on owner.g: rowmap points every column at the
	// template's default rows except the prevDirty ones, emb holds the
	// default map except the deviating columns, and devCols is all-false
	// outside prevDirty. A dense extraction clobbers them and clears owner.
	owner     *Session
	ses       *Session // the session ContainTorus drives (sessionFor)
	prevDirty []int32
	devCols   []bool
	cleanVec  []int32
	colSeen   []int32 // per-column verify bitmap, generation-counted
	colGen    int32
	faultCol  []int32 // per-column fault marker, generation-counted
	faultGen  int32
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
	if sc == nil {
		return fault.NewSet(n)
	}
	if sc.faults == nil || sc.faults.Len() != n {
		sc.faults = fault.NewSet(n)
	} else {
		sc.faults.Clear()
	}
	return sc.faults
}

// rowBuffers returns numCols nil'd row-map headers plus their flat
// backing array of numCols*n int32s. Used by the dense extraction, which
// overwrites every header — so any committed session state is invalidated.
func (sc *Scratch) rowBuffers(numCols, n int) ([][]int32, []int32) {
	if sc == nil {
		return make([][]int32, numCols), make([]int32, numCols*n)
	}
	sc.owner = nil
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
	if sc == nil {
		return make([]int, 0, capacity)
	}
	if cap(sc.queue) < capacity {
		sc.queue = make([]int, 0, capacity)
	}
	return sc.queue[:0]
}

// seenBuf returns a false-filled bool slice of length n for the dense
// verifier's injectivity check.
// A nil receiver returns nil: VerifyBuf allocates its own bitmap then.
func (sc *Scratch) seenBuf(n int) []bool {
	if sc == nil {
		return nil
	}
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

// guestTorus returns the cached d-dimensional side-n guest torus,
// building it on first use or when the shape changed.
func (sc *Scratch) guestTorus(d, n int) (*torus.Graph, error) {
	if sc == nil {
		return torus.NewUniform(torus.TorusKind, d, n)
	}
	g := sc.guest
	if g != nil && g.Kind == torus.TorusKind && len(g.Shape) == d {
		ok := true
		for _, s := range g.Shape {
			if s != n {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	g, err := torus.NewUniform(torus.TorusKind, d, n)
	if err != nil {
		return nil, err
	}
	sc.guest = g
	return g, nil
}

// embedding returns a reusable embedding onto guest.
func (sc *Scratch) embedding(guest *torus.Graph) *embed.Embedding {
	if sc == nil {
		return embed.New(guest)
	}
	if sc.emb == nil || sc.emb.Guest != guest || len(sc.emb.Map) != guest.N() {
		sc.emb = embed.New(guest)
	}
	return sc.emb
}

// tileSeenBuf returns an all-false bitmap over the tile grid. Callers
// must clear the bits they set before returning (faultyTiles does), so
// the all-false invariant costs O(faulty tiles), not O(tiles).
func (sc *Scratch) tileSeenBuf(numTiles int) []bool {
	if sc == nil {
		return make([]bool, numTiles)
	}
	if cap(sc.tileSeen) < numTiles {
		sc.tileSeen = make([]bool, numTiles)
	}
	return sc.tileSeen[:numTiles]
}

// tileListBuf returns an empty reusable slice for the faulty-tile list.
func (sc *Scratch) tileListBuf() []int {
	if sc == nil {
		return nil
	}
	return sc.tileList[:0]
}

// usedBuf returns a false-filled bool slice of length n for the
// pigeonhole residue-class scan.
func (sc *Scratch) usedBuf(n int) []bool {
	if sc == nil {
		return make([]bool, n)
	}
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
// stores the grown key list back via setPinnedKeys. The previous trial's
// keys are cleared against the table's full capacity, not the requested
// size: a Scratch may move to a smaller graph, whose table reuses the
// same backing while stale keys still point above it.
func (sc *Scratch) pinnedBuf(size int) ([][]float64, []int) {
	if sc == nil {
		return make([][]float64, size), nil
	}
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

func (sc *Scratch) setPinnedKeys(keys []int) {
	if sc != nil {
		sc.pinnedKeys = keys
	}
}

// localsSlice returns a zeroed float64 slice of length per from the
// trial-lifetime arena. Slices stay valid after arena growth (old
// backing arrays are simply retired).
func (sc *Scratch) localsSlice(per int) []float64 {
	if sc == nil {
		return make([]float64, per)
	}
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
	if sc == nil {
		return newColEval(g, defaults, pinned, cornerShape)
	}
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
	if sc == nil {
		return make([]int, d1)
	}
	if cap(sc.cornerCoord) < d1 {
		sc.cornerCoord = make([]int, d1)
	}
	return sc.cornerCoord[:d1]
}

// footprintBufs returns three d1-sized work slices for the footprint
// odometer.
func (sc *Scratch) footprintBufs(d1 int) (starts, counts, coord []int) {
	if sc == nil {
		return make([]int, d1), make([]int, d1), make([]int, d1)
	}
	if cap(sc.fpStarts) < d1 {
		sc.fpStarts = make([]int, d1)
		sc.fpCounts = make([]int, d1)
		sc.fpCoord = make([]int, d1)
	}
	return sc.fpStarts[:d1], sc.fpCounts[:d1], sc.fpCoord[:d1]
}

// dstBuf returns a length-n int32 buffer for the consistency check.
func (sc *Scratch) dstBuf(n int) []int32 {
	if sc == nil {
		return make([]int32, n)
	}
	if cap(sc.consDst) < n {
		sc.consDst = make([]int32, n)
	}
	return sc.consDst[:n]
}

// cleanVecBuf returns the length-n buffer for the island probes of
// extractIncremental.
func (sc *Scratch) cleanVecBuf(n int) []int32 {
	if cap(sc.cleanVec) < n {
		sc.cleanVec = make([]int32, n)
	}
	return sc.cleanVec[:n]
}

// colSeenBuf returns the generation-counted per-column bitmap over host
// rows and a fresh generation: entries equal to it mark rows seen in the
// current column, so the verifier bumps the generation instead of
// clearing the bitmap. When the counter wraps, the bitmap is cleared and
// the count restarts at 1, so neither a stale stamp nor the zero of a
// never-stamped row can equal the live generation.
func (sc *Scratch) colSeenBuf(m int) ([]int32, int32) {
	if sc == nil {
		return make([]int32, m), 1
	}
	if cap(sc.colSeen) < m {
		sc.colSeen = make([]int32, m)
		sc.colGen = 0
	}
	sc.colGen++
	if sc.colGen <= 0 {
		clear(sc.colSeen[:cap(sc.colSeen)])
		sc.colGen = 1
	}
	return sc.colSeen[:m], sc.colGen
}

// faultColBuf returns the generation-counted per-column fault marker used
// by verifyFaultPass, freshly bumped: entries equal to the returned
// generation mark columns holding at least one fault.
func (sc *Scratch) faultColBuf(numCols int) ([]int32, int32) {
	if cap(sc.faultCol) < numCols {
		sc.faultCol = make([]int32, numCols)
		sc.faultGen = 0
	}
	sc.faultGen++
	return sc.faultCol[:numCols], sc.faultGen
}
