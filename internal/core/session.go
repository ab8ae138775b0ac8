// The delta-evaluation engine: the one incremental pipeline of the
// Theorem 2 construction.
//
// A Session carries the pipeline state — copy-on-write band families,
// row vectors, certification — across a sequence of steps whose fault
// sets differ by arbitrary mutations: additions, removals, or both at
// once. The all-defaults template (locality.go) is commit zero: Reset
// makes it the committed state again, so the first step of a trial is an
// ordinary step diffed against the template. Each step re-derives only
// the columns whose band values actually changed since the last commit,
// and its result is bit-identical to a from-scratch dense evaluation of
// the same fault set (the golden interleaving suite pins this).
//
// The row vectors are the commit. The row-major embedding map is a view
// of them that only Eval brings up to date: a step marks the columns
// whose map entries no longer match their vectors stale, and Eval's map
// sync rewrites exactly those. Check is the same step without the sync,
// for callers that only ask whether the fault set is tolerated. The
// Monte-Carlo engines (the coupled rate ladder in internal/sweep, the
// lifetime trials in internal/churn) call Check; ContainTorus with a
// Scratch and the ftnet facade call Eval. The dense pipeline (Extract,
// and ContainTorus without a Scratch) is the engine's oracle and the
// -dense ablation.
//
// The reuse argument is the locality/path-independence argument of
// Lemmas 5-7, applied between two consecutive band families:
//
//   - Placement (Lemmas 5, 9-11) makes every column's band values a pure
//     function of the pinned corners in its own tile cell, so two
//     families differ only inside the footprints of the boxes that
//     changed. A step detects those columns by value diff over the two
//     families' dirty sets — bit-exact, independent of how boxes moved —
//     and revalidates only them (bands.ValidateColumns).
//   - Extraction (Lemmas 6-7): the canonical row vector of a column whose
//     bands did not change, connected to the anchor column 0 through
//     unchanged columns, is itself unchanged (every transfer along the
//     path is identical). Vectors are re-derived only for changed columns
//     and for unchanged "island" components whose first re-derived contact
//     disagrees with the kept vector (Lemma 7 makes each island
//     all-or-nothing, so one O(n) comparison per boundary contact
//     decides the whole component).
//   - Verification re-certifies exactly the deviating columns whose
//     vector was re-derived, the deviating neighbors of re-derived
//     columns (their cross-column edges face new vectors), and the
//     deviating columns whose fault membership changed; everything else
//     is covered by the previous step's certification plus the template
//     certificate.
//
// A rotated anchor is an ordinary commit. When a footprint moves the
// bands at column 0, the anchor vector is re-derived first and every
// kept component becomes an island probed on first contact; if the
// anchor genuinely rotated, every island disagrees and the step
// re-derives the whole map in O(N), after which later steps diff against
// the rotated state like any other.
//
// Removal is where the two-sided diff earns its keep. A cleared fault
// lets placement release the bands around its box, *healing* columns
// back toward the template. Such a column is dirty in the previous
// committed family (it deviated from the template) but clean in the new
// one (SeedFrom restored it), so diffing either dirty set alone would
// miss it; a step diffs over the union — previous-commit dirt plus
// new-placement dirt — which is exactly "may differ from the template on
// either side". The healed column's vector is then re-derived from a
// trusted frontier like any changed column, and if it returns to the
// default base its embedding slice falls back to the template map (the
// oldDev bookkeeping). No certification work is lost to removals that
// leave the bands alone: an embedding certified against a fault set
// remains valid for every subset, and the per-step fault pass
// (verifyFaultPass) re-checks the surviving faults against the current
// deviation state anyway.
package core

import (
	"slices"

	"ftnet/internal/bands"
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
)

// Column states during one step's incremental extraction.
const (
	swKept      uint8 = iota // bands unchanged, vector provisionally kept
	swChanged                // band values changed, vector must be re-derived
	swAnchor                 // unchanged and connected to column 0: trusted
	swConfirmed              // unchanged island column whose kept vector was re-derived and matched
	swAssigned               // vector re-derived this step
)

// Session is the bidirectional delta-evaluation engine. It owns its
// committed state — two copy-on-write band families (successive steps
// alternate between them so the previous state's values survive for
// diffing), the row vectors and deviation flags they give, and the
// embedding map Eval keeps in step with the vectors — and the
// bookkeeping of which columns each step actually recomputed. It borrows
// only its Scratch's per-call buffers, for the length of one step, so
// other calls on that Scratch leave the commit alone. Like a Scratch, a
// Session must never be shared by concurrent trials; it stays valid
// across trials (call Reset at each trial start).
type Session struct {
	g    *Graph
	sc   *Scratch
	opts ExtractOptions

	bsA, bsB *bands.Set
	cur      *bands.Set // committed family: the template, or bsA/bsB
	warm     bool       // cur is committed; false after Reset

	// The committed row vectors, set to the template by the first begin:
	// rowmap points every column at its row vector (the template's
	// default rows, or the column's slot in rowflat), devCols flags the
	// vectors that deviate from the default rows, and prevDirty lists
	// every column a commit since the last begin may have left deviating
	// (begin restores exactly those).
	rowmap    [][]int32
	rowflat   []int32
	devCols   []bool
	prevDirty []int32

	// The embedding map the row vectors give, a view that only Eval's
	// syncMap brings up to date: nil until the first Eval, and afterwards
	// equal to the map of the vectors outside the columns flagged stale,
	// which staleCols lists once each.
	emb       *embed.Embedding
	stale     []bool
	staleCols []int32

	churnCols []int32 // columns whose fault membership changed since the last successful step

	// Wire-delta accounting (DrainDelta): every map column that may have
	// changed since the previous drain is covered either by deltaCand or
	// by deltaFull. deltaCand lists a column at most once (inDelta flags
	// it) and takes nothing while deltaFull is set, so it never exceeds
	// NumCols entries, drained or not. Failed steps accumulate too — a
	// step can re-derive vectors before verification rejects the state,
	// and those columns may not be re-derived by the next successful Eval.
	deltaCand []int32
	inDelta   []bool
	deltaFull bool

	// Box-level placement diff: the previous successful step's box list
	// and the per-box classification buffers of the current one (see
	// interpolateDelta; session-owned so the per-event hot path does not
	// allocate).
	prevBoxes []*faultBox
	copyable  []bool
	matchedA  []bool
	matchedB  []bool

	mark    []int32 // per-column generation stamps (diff and verify-set dedup)
	gen     int32   // live stamp generation (bumpGen)
	state   []uint8
	changed []int32
	queue   []int
	recomp  []int32 // columns whose vector was re-derived this step
	oldDev  []bool  // dev flag each recomp column had before re-derivation
	pending []int32
	verify  []int32

	cleanVec []int32 // island-probe vector (extractIncremental)
	colSeen  []int32 // per-row stamps of the column verifyColumn checks
	colGen   int32
	faultCol []int32 // per-column stamps of columns holding a fault (verifyFaultPass)
	faultGen int32
}

// NewSession wraps sc, which must not be nil, for delta evaluation on g.
// opts.Scratch is forced to sc; opts.Dense degrades every Eval and Check
// to the independent dense pipeline (the ablation mode).
func (g *Graph) NewSession(sc *Scratch, opts ExtractOptions) *Session {
	opts.Scratch = sc
	return &Session{g: g, sc: sc, opts: opts}
}

// Reset starts a new trial: the next Eval or Check makes the
// all-defaults template the committed state and diffs against it instead
// of against the previous trial's state.
func (s *Session) Reset() {
	s.warm = false
	s.churnCols = s.churnCols[:0]
}

// NoteAdded records newly added fault indices (as returned by
// fault.Set.Extend or BernoulliRecord) so the next step re-certifies
// their columns even when no band moved — e.g. a fault landing on an
// already-masked row.
func (s *Session) NoteAdded(added []int) {
	for _, idx := range added {
		s.churnCols = append(s.churnCols, int32(idx%s.g.NumCols))
	}
}

// NoteCleared records removed fault indices (as returned by
// fault.Set.RemoveRecord). Clearing a fault can never invalidate the
// previous certification — an embedding certified against a fault set
// remains valid for every subset — but the columns are recorded anyway
// so every certified state has been checked against exactly its own
// fault set, keeping each step's certificate self-contained instead of
// resting on a subset argument. The cost is one extra column visit per
// cleared fault, and only when the column deviates.
func (s *Session) NoteCleared(cleared []int) {
	for _, idx := range cleared {
		s.churnCols = append(s.churnCols, int32(idx%s.g.NumCols))
	}
}

// Eval runs the full pipeline — place, extract, verify — on the given
// fault set and returns the survival proof, reusing as much of the
// previous successful step's work as the band-value diff allows. The
// fault set may differ from the previous step's by any mixture of
// additions and removals, as long as every mutation since the last
// successful step was reported through NoteAdded/NoteCleared. After
// verification, Eval brings the embedding map up to date with the
// verified row vectors (syncMap). The Result aliases the Session and is
// valid only until the next Eval, Check or Reset. An *UnhealthyError is
// a survival failure (the committed state stays: the next step diffs
// against the last healthy state, or against the template if none
// committed since Reset); other errors are bugs.
//
//ftnet:hotpath
func (s *Session) Eval(faults *fault.Set) (*Result, error) {
	return s.step(faults, true)
}

// Check is Eval without the embedding map: the same placement,
// extraction, verification and commit, and the same error, but no map
// sync and no Result. It is the step of callers that only ask whether
// the fault set is tolerated, such as the Monte-Carlo engines. A session
// driven only by Check and Reset never allocates its map; the next Eval
// brings it up to date with every Check since.
//
//ftnet:hotpath
func (s *Session) Check(faults *fault.Set) error {
	_, err := s.step(faults, false)
	return err
}

// step is Eval, and Check when withMap is false.
//
//ftnet:hotpath
func (s *Session) step(faults *fault.Set, withMap bool) (*Result, error) {
	g, sc := s.g, s.sc
	if s.opts.Dense {
		s.deltaFull = true
		return g.containDense(faults, s.opts)
	}
	tpl, err := g.template()
	if err != nil {
		// No usable template (e.g. ablated edge classes): every step runs
		// the dense pipeline, which reports such failures on its own terms.
		s.deltaFull = true
		return g.containDense(faults, s.opts)
	}
	if !s.warm {
		s.begin(tpl)
	}
	target := s.bsA
	if s.cur == s.bsA {
		target = s.bsB
	}
	boxes, rep, err := g.buildBoxes(faults, sc)
	if err != nil {
		return nil, err // unhealthy box structure leaves the committed state untouched
	}
	bs, err := s.interpolateDelta(boxes, tpl, target)
	if err != nil {
		return nil, err // unhealthy placements leave the committed state untouched
	}
	res := &Result{Bands: bs, Report: rep}

	// Diff the new family against the last successful step's: every value
	// difference lies inside the union of the two dirty sets (see the
	// package comment — the union is what catches healed columns).
	gen := bumpGen(s.mark, &s.gen)
	s.changed = s.changed[:0]
	for _, list := range [2][]int32{s.cur.DirtyColumns(), bs.DirtyColumns()} {
		for _, z32 := range list {
			if s.mark[z32] == gen {
				continue
			}
			s.mark[z32] = gen
			if !bs.ColumnEqual(s.cur, int(z32)) {
				s.changed = append(s.changed, z32)
			}
		}
	}
	if err := bs.ValidateColumns(s.changed); err != nil {
		return nil, fterr.Wrapf(fterr.Internal, "core", err, "placed bands invalid")
	}
	if err := g.checkAllMasked(bs, faults); err != nil {
		return nil, err
	}
	if err := s.extractIncremental(bs, tpl); err != nil {
		return nil, err
	}
	if err := s.verifyIncremental(faults, tpl); err != nil {
		return nil, err
	}
	if withMap {
		if err := s.syncMap(tpl); err != nil {
			return nil, err
		}
		res.Embedding = s.emb
	}
	s.commit(bs, boxes)
	return res, nil
}

// interpolateDelta is the placement half of the delta evaluation: it
// seeds target from the template and then, box by box, either copies the
// box's footprint values from the last committed family (when the box
// and every box that can influence its footprint are unchanged — values
// are then bit-identical by construction) or re-interpolates it with the
// fresh pinned table. A box is "unchanged" when its tile geometry and
// padded segment list match a previous box exactly; it is demoted to
// re-interpolation when any added or removed box sits close enough
// (expanded footprints intersecting in every dimension) for its pins to
// reach into a shared tile cell. The result is bit-identical to the
// dense interpolation of the same boxes; only the cost differs — a churn
// event pays for the toggled box, not the standing population. Against
// commit zero (no previous boxes) every box is re-interpolated.
//
//ftnet:hotpath
func (s *Session) interpolateDelta(boxes []*faultBox, tpl *template, dst *bands.Set) (*bands.Set, error) {
	g, sc := s.g, s.sc
	p := g.P
	d1 := p.D - 1
	per := p.PerSlab()
	numSlabs := p.NumSlabs()
	cornerShape := g.cornerShape
	tileShape := g.tileShape

	// Classify: copyable[i] means boxes[i] has an identical predecessor.
	// matched[j] marks predecessors that found a successor; the rest were
	// removed and count as perturbing.
	copyable, matched := s.boxClassifyBufs(len(boxes), len(s.prevBoxes))
	for j := range matched {
		matched[j] = false
	}
	for i, b := range boxes {
		copyable[i] = false
		for j, pb := range s.prevBoxes {
			if !matched[j] && sameBox(b, pb) {
				copyable[i] = true
				matched[j] = true
				break
			}
		}
	}
	// Demote matched boxes within reach of a perturber: an added or
	// changed new box (unmatched above) or a removed predecessor. The
	// perturber set is fixed before demotion — a demoted-but-matched box
	// keeps its pins, so demotion does not cascade through it.
	isMatched := append(s.matchedB[:0], copyable...)
	s.matchedB = isMatched
	for i, b := range boxes {
		if !copyable[i] {
			continue
		}
		for k, nb := range boxes {
			if k != i && !isMatched[k] && boxesInfluence(b, nb, tileShape) {
				copyable[i] = false
				break
			}
		}
		if !copyable[i] {
			continue
		}
		for j, pb := range s.prevBoxes {
			if !matched[j] && boxesInfluence(b, pb, tileShape) {
				copyable[i] = false
				break
			}
		}
	}

	if err := dst.SeedFrom(tpl.bs); err != nil {
		return nil, err
	}
	pinned, err := g.buildPinned(boxes, sc, cornerShape)
	if err != nil {
		return nil, err
	}
	ev := sc.colEvalBuf(g, tpl.defaults, pinned, cornerShape)
	starts, counts, coord := sc.footprintBufs(d1)
	cur := s.cur
	for i, b := range boxes {
		if copyable[i] {
			g.footprintColumns(b, starts, counts, coord,
				//lint:allow hotpath the copy callback is consumed inside footprintColumns and never escapes, so it stays on the stack
				func(z int) {
					for rs := 0; rs < b.ext[0]; rs++ {
						gLo := grid.Add(b.lo[0], rs, numSlabs) * per
						dst.CopyBandRange(cur, gLo, gLo+per, z)
					}
				})
			continue
		}
		g.footprintColumns(b, starts, counts, coord,
			//lint:allow hotpath the eval callback is consumed inside footprintColumns and never escapes, so it stays on the stack
			func(z int) {
				ev.setColumn(z)
				for rs := 0; rs < b.ext[0]; rs++ {
					ev.evalSlab(dst, grid.Add(b.lo[0], rs, numSlabs), z)
				}
			})
	}
	return dst, nil
}

// boxClassifyBufs sizes the session's box-classification scratch (grown
// geometrically off the hot path) and hands out the sliced views.
func (s *Session) boxClassifyBufs(nBoxes, nPrev int) (copyable, matched []bool) {
	if cap(s.copyable) < nBoxes {
		s.copyable = make([]bool, nBoxes)
		s.matchedB = make([]bool, nBoxes)
	}
	if cap(s.matchedA) < nPrev {
		s.matchedA = make([]bool, nPrev)
	}
	return s.copyable[:nBoxes], s.matchedA[:nPrev]
}

// sameBox reports whether two fault boxes are identical in tile geometry
// and padded segment layout — the inputs the interpolation's pinned
// corners are a pure function of.
func sameBox(a, b *faultBox) bool {
	if len(a.lo) != len(b.lo) || len(a.segs) != len(b.segs) {
		return false
	}
	for d := range a.lo {
		if a.lo[d] != b.lo[d] || a.ext[d] != b.ext[d] {
			return false
		}
	}
	for i := range a.segs {
		if a.segs[i] != b.segs[i] {
			return false
		}
	}
	return true
}

// boxesInfluence reports whether box p's pins can reach a tile cell that
// box b's footprint columns interpolate over: their expanded footprints
// (±1 tile) must intersect in every dimension. Slab ranges interact
// without the ±1 (pins exist only at spanned slabs), so expanding
// dimension 0 too is conservative, never unsound.
func boxesInfluence(b, p *faultBox, tileShape grid.Shape) bool {
	for d := range tileShape {
		if !grid.IntervalsIntersect(
			grid.Sub(b.lo[d], 1, tileShape[d]), b.ext[d]+2,
			grid.Sub(p.lo[d], 1, tileShape[d]), p.ext[d]+2, tileShape[d]) {
			return false
		}
	}
	return true
}

// bumpGen advances *gen, the live generation of stamps, and returns it.
// When the counter wraps, it clears the stamps and restarts at 1, so
// neither a stale stamp nor the zero of a never-stamped entry can equal
// the live generation.
func bumpGen(stamps []int32, gen *int32) int32 {
	*gen++
	if *gen <= 0 {
		clear(stamps)
		*gen = 1
	}
	return *gen
}

// begin makes the all-defaults template the committed state: commit
// zero. The first begin sizes the session's per-column state and points
// every column at the template's default rows; every later one restores
// only the columns the last commit left deviating, and marks their map
// entries stale. Neither touches the map itself (syncMap does).
func (s *Session) begin(tpl *template) {
	g := s.g
	p := g.P
	n := p.N()
	numCols := g.NumCols
	s.deltaFull = true
	if s.rowmap == nil {
		s.bsA = bands.NewSet(p.M(), p.W, g.ColShape, p.K())
		s.bsB = bands.NewSet(p.M(), p.W, g.ColShape, p.K())
		s.mark = make([]int32, numCols)
		s.state = make([]uint8, numCols)
		s.faultCol = make([]int32, numCols)
		s.colSeen = make([]int32, p.M())
		s.cleanVec = make([]int32, n)
		s.devCols = make([]bool, numCols)
		s.stale = make([]bool, numCols)
		s.inDelta = make([]bool, numCols)
		s.rowflat = make([]int32, numCols*n)
		s.rowmap = make([][]int32, numCols)
		for z := range s.rowmap {
			s.rowmap[z] = tpl.defaultRows
		}
	} else {
		// Point every previously dirty column back at the default rows; the
		// map entries of the deviating ones go stale.
		for _, z32 := range s.prevDirty {
			s.rowmap[z32] = tpl.defaultRows
			if s.devCols[z32] {
				s.devCols[z32] = false
				s.markStale(z32)
			}
		}
	}
	s.prevDirty = s.prevDirty[:0]
	s.cur = tpl.bs
	s.prevBoxes = nil
	s.warm = true
}

// markStale records that column z's map entries may no longer match its
// row vector: the next map sync rewrites them, and the wire delta
// reports the column.
//
//ftnet:hotpath
func (s *Session) markStale(z int32) {
	if !s.stale[z] {
		s.stale[z] = true
		s.staleCols = append(s.staleCols, z)
	}
	if !s.deltaFull && !s.inDelta[z] {
		s.inDelta[z] = true
		s.deltaCand = append(s.deltaCand, z)
	}
}

// syncMap brings the embedding map up to date with the verified row
// vectors. The first sync allocates the map and fills it from the
// template (fillMap); every sync rewrites the stale columns in one
// row-major sweep, then pins the map entries of the columns this step
// verified to their vectors in another (firstUnsynced), so the
// certificate covers the map itself.
//
//ftnet:hotpath
func (s *Session) syncMap(tpl *template) error {
	g := s.g
	n := g.P.N()
	if s.emb == nil {
		s.fillMap(tpl)
	}
	e := s.emb
	slices.Sort(s.staleCols)
	writeColumns(e.Map, g.NumCols, n, s.staleCols, s.rowmap)
	for _, z32 := range s.staleCols {
		s.stale[z32] = false
	}
	s.staleCols = s.staleCols[:0]

	if len(e.Map) != e.Guest.N() {
		return fterr.New(fterr.Internal, "embed", "map has %d entries, guest has %d nodes", len(e.Map), e.Guest.N())
	}
	slices.Sort(s.verify) // ascending, for the row-major sweep
	if j, z := firstUnsynced(e.Map, g.NumCols, n, s.verify, s.rowmap); z >= 0 {
		return fterr.New(fterr.Internal, "core", "embedding out of sync with row vector at guest node (%d,%d)", j, z)
	}
	return nil
}

// fillMap allocates the session's embedding map and fills every column
// from the template's default rows in one O(N) pass. The stale columns
// cover every vector that deviates from them, so the sync that follows
// brings the whole map up to date. A new map is a full rewrite for the
// wire delta.
func (s *Session) fillMap(tpl *template) {
	numCols := s.g.NumCols
	s.emb = embed.New(s.g.guest)
	for i, r := range tpl.defaultRows {
		host := int(r) * numCols
		row := s.emb.Map[i*numCols : (i+1)*numCols]
		for z := range row {
			row[z] = host + z
		}
	}
	s.deltaFull = true
}

// commit records a successful step: the session's rowmap/dev state now
// describes bs (placed from boxes), and s.prevDirty (the inter-trial
// restore list, extended by extractIncremental) covers every column
// deviating from the template.
func (s *Session) commit(bs *bands.Set, boxes []*faultBox) {
	s.cur = bs
	s.prevBoxes = boxes
	s.churnCols = s.churnCols[:0]
}

// DrainDelta reports which embedding columns may have changed since the
// previous drain, accumulated across every Eval and Check in between —
// including failed ones, which can re-derive vectors before verification
// rejects the state. full reports that a non-incremental rewrite
// happened (the first step after a Reset, the first map sync, dense
// mode, template fallback); cols is then nil and the caller must treat
// every column as changed. Otherwise cols is sorted, deduplicated,
// caller-owned, and a superset of the truly changed columns (callers
// comparing maps filter it exactly). Draining resets the accumulator.
func (s *Session) DrainDelta() (cols []int32, full bool) {
	full = s.deltaFull
	s.deltaFull = false
	cand := s.deltaCand
	s.deltaCand = cand[:0]
	for _, z32 := range cand {
		s.inDelta[z32] = false
	}
	if full || len(cand) == 0 {
		return nil, full
	}
	slices.Sort(cand)
	return slices.Clone(cand), false
}

// extractIncremental re-derives row vectors for exactly the columns that
// need it: the changed columns, plus any unchanged island whose kept
// vectors no longer match a re-derived boundary contact. Kept columns'
// vectors stay canonical by Lemma 7 (see the package comment), so the
// embedding is bit-identical to a from-scratch extraction.
//
//ftnet:hotpath
func (s *Session) extractIncremental(bs *bands.Set, tpl *template) error {
	g, sc := s.g, s.sc
	n := g.P.N()
	rowmap, rowflat, dev := s.rowmap, s.rowflat, s.devCols
	base := tpl.defaultRows

	state := s.state
	for z := range state {
		state[z] = swKept
	}
	for _, z32 := range s.changed {
		state[z32] = swChanged
	}
	s.recomp = s.recomp[:0]
	s.oldDev = s.oldDev[:0]

	queue := s.queue[:0]
	if state[0] == swChanged {
		// The anchor's own bands changed. Its canonical vector is directly
		// recomputable (Lemma 6 anchors guest row 0 just above band 0 of
		// column 0), so it seeds the flood pre-assigned; no free trust
		// region exists, and every kept component is validated through
		// island probes on first contact.
		anchor := bs.UnmaskedRows(0, rowflat[:0:n])
		if len(anchor) != n {
			return fterr.New(fterr.Internal, "core", "column 0 has %d unmasked rows, want %d", len(anchor), n)
		}
		s.oldDev = append(s.oldDev, dev[0])
		rowmap[0] = anchor
		dev[0] = !int32Equal(anchor, base)
		state[0] = swAssigned
		s.recomp = append(s.recomp, 0)
		queue = append(queue, 0)
	} else {
		// Trust region: the component of unchanged columns containing the
		// anchor column 0 keeps its vectors verbatim.
		state[0] = swAnchor
		queue = append(queue, 0)
		for head := 0; head < len(queue); head++ {
			for _, zn := range g.columnNeighbors(queue[head]) {
				if state[zn] == swKept {
					state[zn] = swAnchor
					queue = append(queue, int(zn))
				}
			}
		}
		queue = queue[:0]
	}

	// Re-derive the changed region, flooding BFS out of trusted columns.
	// Seeding may need several passes: a changed component enclosed by
	// not-yet-confirmed islands becomes seedable only after those islands
	// are contacted. assign transfers zFrom -> zTo into zTo's backing slot.
	//lint:allow hotpath assign is called only inside this function and never escapes; one stack closure per step, not per column
	assign := func(zFrom, zTo int) error {
		dst := rowflat[zTo*n : (zTo+1)*n]
		s.oldDev = append(s.oldDev, dev[zTo])
		if err := g.transferFast(bs, base, sc, zFrom, zTo, rowmap[zFrom], dst, dev); err != nil {
			return err
		}
		rowmap[zTo] = dst
		state[zTo] = swAssigned
		s.recomp = append(s.recomp, int32(zTo))
		queue = append(queue, zTo)
		return nil
	}
	s.pending = append(s.pending[:0], s.changed...)
	for len(s.pending) > 0 {
		// Seed every pending changed column that touches a trusted one.
		rest := s.pending[:0]
		progress := false
		for _, z32 := range s.pending {
			z := int(z32)
			if state[z] != swChanged {
				progress = true // assigned by an earlier flood
				continue
			}
			seeded := false
			for _, zn := range g.columnNeighbors(z) {
				if st := state[zn]; st == swAnchor || st == swConfirmed || st == swAssigned {
					if err := assign(int(zn), z); err != nil {
						return err
					}
					seeded = true
					break
				}
			}
			if seeded {
				progress = true
			} else {
				rest = append(rest, z32)
			}
		}
		s.pending = rest
		if !progress && len(s.pending) > 0 {
			return fterr.New(fterr.Internal, "core", "%d changed columns unreachable from any trusted column", len(s.pending))
		}
		// Flood: walk the frontier of trusted vectors, re-deriving changed
		// columns and probing kept islands on first contact. A confirmed
		// island column spreads confirmation through its whole component
		// without further O(n) comparisons (Lemma 7 makes the component
		// all-or-nothing) and is itself a valid transfer source, so trust
		// crosses islands to reach changed regions on their far side.
		for head := 0; head < len(queue); head++ {
			z := queue[head]
			confirmed := state[z] == swConfirmed
			for _, zn32 := range g.columnNeighbors(z) {
				zn := int(zn32)
				switch state[zn] {
				case swChanged:
					if err := assign(z, zn); err != nil {
						return err
					}
				case swKept:
					if confirmed {
						// Same island as an already-validated column.
						state[zn] = swConfirmed
						queue = append(queue, zn)
						continue
					}
					// First contact with a kept island: re-derive its vector
					// once. If it matches, the whole component is valid; if
					// not, the island genuinely shifted — flood into it.
					tmp := s.cleanVec
					oldDev := dev[zn]
					if err := g.transferFast(bs, base, sc, z, zn, rowmap[z], tmp, dev); err != nil {
						return err
					}
					if int32Equal(tmp, rowmap[zn]) {
						dev[zn] = oldDev
						state[zn] = swConfirmed
						queue = append(queue, zn)
						continue
					}
					dst := rowflat[zn*n : (zn+1)*n]
					copy(dst, tmp)
					rowmap[zn] = dst
					s.oldDev = append(s.oldDev, oldDev)
					state[zn] = swAssigned
					s.recomp = append(s.recomp, int32(zn))
					queue = append(queue, zn)
				}
			}
		}
		queue = queue[:0]
	}
	s.queue = queue

	// Mark the map entries of re-derived columns stale: deviating vectors
	// are written out by the next map sync, and a vector restored to base
	// points back at the template's default rows (equal by value) so its
	// map entries fall back to the default map.
	for i, z32 := range s.recomp {
		switch {
		case dev[z32]:
		case s.oldDev[i]:
			rowmap[z32] = base
		default:
			continue
		}
		s.markStale(z32)
	}
	// Extend the inter-trial restore set: anything re-derived this step
	// may now deviate from the template.
	gen := bumpGen(s.mark, &s.gen)
	for _, z32 := range s.prevDirty {
		s.mark[z32] = gen
	}
	for _, z32 := range s.recomp {
		if s.mark[z32] != gen {
			s.mark[z32] = gen
			s.prevDirty = append(s.prevDirty, z32)
		}
	}
	return nil
}

// verifyIncremental re-certifies the step: every deviating column whose
// vector was re-derived, every deviating neighbor of a re-derived column
// (its cross-column edges face new vectors), and every deviating column
// whose fault membership changed since the last certified state; plus
// the masked-under-default check for all faults in non-deviating columns.
// It leaves the verified columns in s.verify, which Eval's map sync pins
// to the map.
//
//ftnet:hotpath
func (s *Session) verifyIncremental(faults *fault.Set, tpl *template) error {
	g := s.g
	dev := s.devCols
	if err := s.verifyFaultPass(faults, tpl); err != nil {
		return err
	}

	gen := bumpGen(s.mark, &s.gen)
	s.verify = s.verify[:0]
	//lint:allow hotpath add never escapes verifyIncremental; one stack closure per step, not per column
	add := func(z int) {
		if s.mark[z] != gen && dev[z] {
			s.mark[z] = gen
			s.verify = append(s.verify, int32(z))
		}
	}
	for _, z32 := range s.recomp {
		z := int(z32)
		add(z)
		for _, zn := range g.columnNeighbors(z) {
			add(int(zn))
		}
	}
	for _, z32 := range s.churnCols {
		add(int(z32))
	}

	//lint:allow hotpath inSet never escapes verifyIncremental; one stack closure per step, not per column
	inSet := func(z int) bool { return s.mark[z] == gen }
	for _, z32 := range s.verify {
		z := int(z32)
		if err := s.verifyColumn(faults, z, s.faultCol[z] == s.faultGen,
			//lint:allow hotpath the skipPair predicate is consumed inside verifyColumn and never escapes; it stays on the stack
			func(zn int) bool { return inSet(zn) && zn < z }); err != nil {
			return err
		}
	}
	return nil
}

// FindAnchorRotatingFault searches for the smallest node index whose
// lone fault, evaluated from commit zero, genuinely rotates the
// embedding anchor (see anchorRotated). Used by regression tests and
// benchmarks that need a deterministic rotating fault; returns -1 when
// no single node rotates this host.
func (g *Graph) FindAnchorRotatingFault() int {
	sc := NewScratch(1)
	ses := g.NewSession(sc, ExtractOptions{})
	for u := 0; u < g.NumNodes(); u++ {
		faults := sc.Faults(g.NumNodes())
		faults.Add(u)
		ses.Reset()
		if err := ses.Check(faults); err == nil && ses.anchorRotated() {
			return u
		}
	}
	return -1
}

// anchorRotated reports whether the committed state has a rotated
// anchor: some column outside the committed family's dirty set — a
// column with default bands — deviates from the default rows.
func (s *Session) anchorRotated() bool {
	for z, dev := range s.devCols {
		if dev && !s.cur.IsDirty(z) {
			return true
		}
	}
	return false
}
