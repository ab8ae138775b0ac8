package core

import (
	"fmt"
	"slices"
	"sort"

	"ftnet/internal/bands"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
	"ftnet/internal/multilinear"
)

// UnhealthyError reports that the fault pattern violates the structural
// conditions band placement relies on (the constructive analogue of the
// paper's "healthy" definition). In the random-fault regime of Theorem 2
// this happens with probability n^{-Omega(log log n)}; Monte-Carlo trials
// count it as a survival failure, not a bug.
type UnhealthyError struct {
	Reason string
}

func (e *UnhealthyError) Error() string { return "core: unhealthy fault pattern: " + e.Reason }

// FtCode marks UnhealthyError as fterr.NotTolerated (the fterr.Coder
// interface), so fterr.CodeOf classifies it without the public package
// having to re-wrap — the state must heal before a retry can succeed.
func (e *UnhealthyError) FtCode() fterr.Code { return fterr.NotTolerated }

func unhealthy(format string, args ...any) error {
	return &UnhealthyError{Reason: fmt.Sprintf(format, args...)}
}

// PlaceReport carries diagnostics from a band placement run.
type PlaceReport struct {
	Faults      int // number of faulty nodes
	FaultyTiles int // number of tiles containing faults
	Boxes       int // fault boxes after merging
	MaxBoxTiles int // largest box extent, in tiles
	Segments    int // pigeonhole segments masking faults
	Padded      int // filler segments added to reach PerSlab everywhere
	MergePasses int // outer merge/extend iterations
}

// faultBox is a tile-aligned box isolating a cluster of faults: the
// implementation's version of the paper's black regions, rounded out to
// whole tiles. lo/ext are tile coordinates and extents per dimension
// (dimension 0 indexes slabs); rows inside the box are addressed relative
// to lo[0]*b^2.
type faultBox struct {
	lo  []int
	ext []int
	// faultRows lists the distinct fault row offsets (relative), sorted.
	faultRows []int
	// segs lists segment bottoms (relative), sorted, after pigeonholing.
	// After padding it holds exactly PerSlab segments per slab, so relative
	// slab rs owns segs[rs*PerSlab : (rs+1)*PerSlab].
	segs []int
}

// PlaceBands runs the constructive proof of Lemma 5: it isolates faults
// into separated boxes, masks them with straight pigeonhole segments, pads
// each slab of each box to exactly PerSlab segments, and interpolates
// everything else multilinearly (Lemmas 9-11). The returned family always
// passes bands.Set.Validate and masks every fault; if the fault pattern is
// too dense or too clustered it returns an *UnhealthyError instead.
func (g *Graph) PlaceBands(faults *fault.Set) (*bands.Set, *PlaceReport, error) {
	return g.placeBands(faults, NewScratch())
}

// placeBands is the dense placement: buildBoxes, then the whole-host
// interpolation, validated in full. sc supplies buffers.
func (g *Graph) placeBands(faults *fault.Set, sc *Scratch) (*bands.Set, *PlaceReport, error) {
	boxes, rep, err := g.buildBoxes(faults, sc)
	if err != nil {
		return nil, rep, err
	}
	bs, err := g.interpolate(boxes, sc)
	if err != nil {
		return nil, rep, err
	}
	if err := bs.Validate(); err != nil {
		return nil, rep, fmt.Errorf("core: placed bands invalid: %w", err)
	}
	if err := g.checkAllMasked(bs, faults); err != nil {
		return nil, rep, err
	}
	return bs, rep, nil
}

// buildBoxes runs the combinatorial half of Lemma 5 — fault-box
// isolation, pigeonhole segments, padding — and returns the finished box
// list ready for interpolation. The boxes are freshly allocated each
// call (the delta-evaluation engine retains the previous step's list for
// box-level diffing); the tile table, grouping and coordinate buffers
// come from sc.
func (g *Graph) buildBoxes(faults *fault.Set, sc *Scratch) ([]*faultBox, *PlaceReport, error) {
	rep := &PlaceReport{Faults: faults.Count()}
	tileShape := g.tileShape

	faultyTiles := g.faultyTiles(faults, sc)
	rep.FaultyTiles = len(faultyTiles)

	boxes := initialBoxes(faultyTiles, tileShape, g.chebyshevDeltas(), sc)
	for pass := 0; ; pass++ {
		rep.MergePasses = pass + 1
		if pass > 8 {
			return nil, rep, unhealthy("box merging did not converge after %d passes", pass)
		}
		boxes = mergeBoxes(boxes, tileShape)
		if err := g.checkBoxCaps(boxes, tileShape); err != nil {
			return nil, rep, err
		}
		if err := g.assignFaultRows(boxes, faults, tileShape, sc); err != nil {
			return nil, rep, err
		}
		extended := false
		for _, b := range boxes {
			if err := g.pigeonholeSegments(b, sc); err != nil {
				return nil, rep, err
			}
			if len(b.segs) > 0 && b.segs[0] < 0 {
				// A segment dipped below the box: grow the box one slab down
				// and redo the merge in case it now touches a neighbor.
				b.lo[0] = grid.Sub(b.lo[0], 1, tileShape[0])
				b.ext[0]++
				extended = true
			}
		}
		if !extended {
			break
		}
	}

	rep.Boxes = len(boxes)
	for _, b := range boxes {
		rep.Segments += len(b.segs)
		for _, e := range b.ext {
			if e > rep.MaxBoxTiles {
				rep.MaxBoxTiles = e
			}
		}
	}

	for _, b := range boxes {
		padded, err := g.padBox(b, sc)
		if err != nil {
			return nil, rep, err
		}
		rep.Padded += padded
	}
	return boxes, rep, nil
}

// faultyTiles returns the sorted flat indices of the tiles containing at
// least one fault, and numbers them 1, 2, … in that order in the
// scratch's tile table (sc.tileSeen) for initialBoxes, which zeroes the
// entries again.
func (g *Graph) faultyTiles(faults *fault.Set, sc *Scratch) []int {
	t := g.P.Tile()
	colTileShape := g.tileShape[1:]
	colTiles := colTileShape.Size()
	sc.tileSeen = grow(sc.tileSeen, g.tileShape.Size())
	sc.coordA, sc.coordB = grow(sc.coordA, g.P.D-1), grow(sc.coordB, g.P.D-1)
	index, coord, tcoord := sc.tileSeen, sc.coordA, sc.coordB
	out := sc.tileList[:0]
	faults.ForEach(func(idx int) {
		i, z := g.NodeOf(idx)
		g.ColShape.Coord(z, coord)
		for j, c := range coord {
			tcoord[j] = c / t
		}
		flat := (i/t)*colTiles + colTileShape.Index(tcoord)
		if index[flat] == 0 {
			index[flat] = -1
			out = append(out, flat)
		}
	})
	numberTiles(index, out)
	sc.tileList = out
	return out
}

// numberTiles sorts the faulty tiles and numbers them 1, 2, … in that
// order in the tile table, the input initialBoxes expects.
func numberTiles(index []int32, tiles []int) {
	sort.Ints(tiles)
	for k, t := range tiles {
		index[t] = int32(k + 1)
	}
}

// initialBoxes groups faulty tiles into Chebyshev-connected components and
// returns each component's minimal cyclic bounding box, in the order of
// the components' first tiles. tiles is sorted and numbered 1, 2, … in
// sc's tile table (faultyTiles); initialBoxes zeroes those entries before
// it returns. deltas is the 3^d-1 neighbor-offset table
// (Graph.chebyshevDeltas).
func initialBoxes(tiles []int, tileShape grid.Shape, deltas [][]int, sc *Scratch) []*faultBox {
	k := len(tiles)
	if k == 0 {
		return nil
	}
	d := len(tileShape)
	index := sc.tileSeen
	parent, comp, members, ends, coords, cover := sc.groupBufs(k, d)
	sc.coordA = grow(sc.coordA, d)
	ncoord := sc.coordA
	for i, t := range tiles {
		parent[i] = int32(i)
		tileShape.Coord(t, coords[i*d:(i+1)*d])
	}
	// Union every tile with its faulty Chebyshev neighbors, always toward
	// the smaller index, so each root is its component's first tile.
	for i := range tiles {
		coord := coords[i*d : (i+1)*d]
		for _, delta := range deltas {
			for j, c := range coord {
				ncoord[j] = grid.Add(c, delta[j], tileShape[j])
			}
			if ni := index[tileShape.Index(ncoord)]; ni != 0 {
				ra, rb := findRoot(parent, int32(i)), findRoot(parent, ni-1)
				if ra < rb {
					parent[rb] = ra
				} else {
					parent[ra] = rb
				}
			}
		}
	}
	for _, t := range tiles {
		index[t] = 0
	}
	// Number the components in first-tile order, then bucket the tiles by
	// component, each bucket in tile order (a counting sort): component
	// c's tiles end up in members[ends[c-1]:ends[c]].
	nc := int32(0)
	for i := range tiles {
		if r := findRoot(parent, int32(i)); r == int32(i) {
			comp[i] = nc
			nc++
		} else {
			comp[i] = comp[r]
		}
	}
	ends = ends[:nc]
	clear(ends)
	for _, c := range comp {
		ends[c]++
	}
	sum := int32(0)
	for c, cnt := range ends {
		ends[c] = sum
		sum += cnt
	}
	for i, c := range comp {
		members[ends[c]] = int32(i)
		ends[c]++
	}
	// The boxes are fresh (the session keeps the previous step's list);
	// one allocation backs every box's lo and ext.
	boxes := make([]*faultBox, nc)
	store := make([]faultBox, nc)
	loExt := make([]int, 2*d*int(nc))
	start := int32(0)
	for c := range boxes {
		b := &store[c]
		b.lo = loExt[2*d*c : 2*d*c+d : 2*d*c+d]
		b.ext = loExt[2*d*c+d : 2*d*(c+1) : 2*d*(c+1)]
		group := members[start:ends[c]]
		for dim := 0; dim < d; dim++ {
			for j, m := range group {
				cover[j] = coords[int(m)*d+dim]
			}
			b.lo[dim], b.ext[dim] = grid.CyclicCover(cover[:len(group)], tileShape[dim])
		}
		boxes[c] = b
		start = ends[c]
	}
	return boxes
}

// findRoot returns x's union-find root, halving the path on the way.
func findRoot(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

func genChebyshevDeltas(d int) [][]int {
	var out [][]int
	delta := make([]int, d)
	var rec func(int)
	rec = func(i int) {
		if i == d {
			for _, v := range delta {
				if v != 0 {
					c := make([]int, d)
					copy(c, delta)
					out = append(out, c)
					return
				}
			}
			return
		}
		for _, v := range [3]int{-1, 0, 1} {
			delta[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// mergeBoxes repeatedly merges any two boxes whose 1-tile expansions
// intersect, guaranteeing that distinct boxes end up separated by at least
// one fault-free white tile in some dimension — and, because expansion is
// applied in every dimension, even diagonally. This realizes the corner
// separation the paper derives from the painting procedure ("two hypercubes
// share a point only within one black region").
func mergeBoxes(boxes []*faultBox, tileShape grid.Shape) []*faultBox {
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(boxes) && !changed; i++ {
			for j := i + 1; j < len(boxes); j++ {
				if !boxesNear(boxes[i], boxes[j], tileShape) {
					continue
				}
				for dim := range tileShape {
					lo, e := grid.IntervalCover(
						boxes[i].lo[dim], boxes[i].ext[dim],
						boxes[j].lo[dim], boxes[j].ext[dim], tileShape[dim])
					boxes[i].lo[dim], boxes[i].ext[dim] = lo, e
				}
				boxes = append(boxes[:j], boxes[j+1:]...)
				changed = true
				break
			}
		}
	}
	return boxes
}

// boxesNear reports whether boxes a and b, each expanded by one tile on
// every side, intersect (i.e. the boxes are Chebyshev-adjacent or closer).
func boxesNear(a, b *faultBox, tileShape grid.Shape) bool {
	for dim := range tileShape {
		if !grid.IntervalsIntersect(
			grid.Sub(a.lo[dim], 1, tileShape[dim]), a.ext[dim]+2,
			b.lo[dim], b.ext[dim], tileShape[dim]) {
			return false
		}
	}
	return true
}

func (g *Graph) checkBoxCaps(boxes []*faultBox, tileShape grid.Shape) error {
	cap := g.P.BoxCap()
	for _, b := range boxes {
		for dim, e := range b.ext {
			limit := cap
			if tileShape[dim]-2 < limit {
				limit = tileShape[dim] - 2
			}
			if e > limit {
				return unhealthy("fault box spans %d tiles in dimension %d (limit %d; paper condition 3 fails)", e, dim, limit)
			}
		}
	}
	return nil
}

// assignFaultRows recomputes, for every box, the sorted distinct relative
// rows containing faults. Every fault must land inside exactly one box.
func (g *Graph) assignFaultRows(boxes []*faultBox, faults *fault.Set, tileShape grid.Shape, sc *Scratch) error {
	t := g.P.Tile()
	m := g.P.M()
	for _, b := range boxes {
		b.faultRows = b.faultRows[:0]
		b.segs = nil
	}
	sc.coordA = grow(sc.coordA, g.P.D-1)
	coord := sc.coordA
	var outErr error
	faults.ForEach(func(idx int) {
		if outErr != nil {
			return
		}
		i, z := g.NodeOf(idx)
		g.ColShape.Coord(z, coord)
		owner := (*faultBox)(nil)
		for _, b := range boxes {
			if !grid.InCyclicInterval(i/t, b.lo[0], b.ext[0], tileShape[0]) {
				continue
			}
			inside := true
			for dim := 1; dim < g.P.D; dim++ {
				if !grid.InCyclicInterval(coord[dim-1]/t, b.lo[dim], b.ext[dim], tileShape[dim]) {
					inside = false
					break
				}
			}
			if inside {
				owner = b
				break
			}
		}
		if owner == nil {
			outErr = fterr.New(fterr.Internal, "core", "fault %d not covered by any box", idx)
			return
		}
		rel := grid.FwdGap(owner.lo[0]*t, i, m)
		owner.faultRows = append(owner.faultRows, rel)
	})
	if outErr != nil {
		return outErr
	}
	for _, b := range boxes {
		sort.Ints(b.faultRows)
		b.faultRows = slices.Compact(b.faultRows)
	}
	return nil
}

// pigeonholeSegments implements the block argument of Lemma 5: split the
// box's fault rows into blocks separated by >= 2b fault-free rows, find in
// each block a cyclic residue class mod (b+1) free of faults, and lay
// straight width-b segments in the slots between class rows so that every
// fault is masked and consecutive segments keep one unmasked row between
// them.
func (g *Graph) pigeonholeSegments(b *faultBox, sc *Scratch) error {
	w := g.P.W
	rows := b.faultRows
	b.segs = b.segs[:0]
	for start := 0; start < len(rows); {
		end := start
		for end+1 < len(rows) && rows[end+1]-rows[end] < 2*w {
			end++
		}
		blockStart := rows[start]
		// Find a fault-free residue class mod (w+1) within the block.
		used := sc.usedBuf(w + 1)
		for i := start; i <= end; i++ {
			used[(rows[i]-blockStart)%(w+1)] = true
		}
		class := -1
		for c, u := range used {
			if !u {
				class = c
				break
			}
		}
		if class < 0 {
			return unhealthy("block with %d fault rows has no fault-free residue class mod %d (paper condition 1/2 fails)",
				end-start+1, w+1)
		}
		anchor := blockStart + class + 1
		lastSlot := -1 << 62
		for i := start; i <= end; i++ {
			slot := grid.FloorDiv(rows[i]-anchor, w+1)
			if slot != lastSlot {
				b.segs = append(b.segs, anchor+slot*(w+1))
				lastSlot = slot
			}
		}
		start = end + 1
	}
	sort.Ints(b.segs)
	// Internal invariants: segments untouching, every fault covered.
	for i := 1; i < len(b.segs); i++ {
		if b.segs[i]-b.segs[i-1] < w+1 {
			return fterr.New(fterr.Internal, "core", "segments %d and %d touch", b.segs[i-1], b.segs[i])
		}
	}
	for _, r := range rows {
		i := sort.SearchInts(b.segs, r+1) - 1
		if i < 0 || r-b.segs[i] >= w {
			return fterr.New(fterr.Internal, "core", "fault row %d unmasked by segments", r)
		}
	}
	return nil
}

// padBox tops every slab the box spans up to exactly PerSlab segments,
// keeping the whole segment family untouching. Returns the number of
// filler segments added.
//
// The working list `all` stays sorted throughout: each filler candidate
// is advanced past its conflicts with one binary search plus a forward
// walk over the (few) conflicting neighbors, then spliced in at its
// insertion point — replacing the previous quadratic rescan-and-resort
// per filler (see BenchmarkPadBox).
func (g *Graph) padBox(b *faultBox, sc *Scratch) (int, error) {
	t := g.P.Tile()
	w := g.P.W
	per := g.P.PerSlab()
	slabs := b.ext[0]
	for i, s := range b.segs { // b.segs is sorted (pigeonholeSegments)
		if s < 0 || s >= slabs*t {
			return 0, fterr.New(fterr.Internal, "core", "segment %d outside box rows [0,%d)", s, slabs*t)
		}
		if i >= per && b.segs[i-per]/t == s/t {
			return 0, unhealthy("slab needs %d segments but capacity is %d (paper condition 2 fails)", per+1, per)
		}
	}
	added := 0
	all := append(sc.segMerge[:0], b.segs...)
	for rs := 0; rs < slabs; rs++ {
		need := per - slabCount(b.segs, rs, t)
		pos := rs * t
		for need > 0 {
			// Advance pos past every segment s with |pos-s| <= w. The
			// list is sorted, so conflicts form a contiguous run starting
			// at the first segment >= pos-w; each hop lands pos just
			// clear of one conflict and the run can only move forward.
			idx := sort.SearchInts(all, pos-w)
			for idx < len(all) && all[idx] <= pos+w {
				pos = all[idx] + w + 1
				idx++
			}
			if pos >= (rs+1)*t {
				return added, unhealthy("cannot pad slab to %d segments", per)
			}
			// Splice pos in at idx, keeping the list sorted.
			all = append(all, 0)
			copy(all[idx+1:], all[idx:])
			all[idx] = pos
			added++
			need--
			pos += w + 1
		}
	}
	b.segs = append(b.segs[:0], all...)
	sc.segMerge = all
	// buildPinned reads slab rs as segs[rs*per:(rs+1)*per].
	for rs := 0; rs < slabs; rs++ {
		if c := slabCount(b.segs, rs, t); c != per {
			return added, fterr.New(fterr.Internal, "core", "slab %d has %d segments, want %d", rs, c, per)
		}
	}
	return added, nil
}

// slabCount returns the number of sorted segments in relative slab rs.
func slabCount(segs []int, rs, t int) int {
	return sort.SearchInts(segs, (rs+1)*t) - sort.SearchInts(segs, rs*t)
}

// buildPinned fills the dense pinned-corner table: entry
// slab*numCorners+corner holds the per local segment positions a box pins
// at that (slab, tile-corner), nil everywhere else. The table and its
// occupied-key list live in the scratch so steady-state trials allocate
// nothing.
func (g *Graph) buildPinned(boxes []*faultBox, sc *Scratch, cornerShape grid.Shape) ([][]float64, error) {
	p := g.P
	t := p.Tile()
	per := p.PerSlab()
	numSlabs := p.NumSlabs()
	colTiles := p.ColTiles()
	d1 := p.D - 1
	numCorners := cornerShape.Size()

	pinned, keys := sc.pinnedBuf(numSlabs * numCorners)
	sc.cornerCoord = grow(sc.cornerCoord, d1)
	cornerCoord := sc.cornerCoord
	for _, b := range boxes {
		for rs := 0; rs < b.ext[0]; rs++ {
			slab := grid.Add(b.lo[0], rs, numSlabs)
			locals := sc.localsSlice(per)
			for j, s := range b.segs[rs*per : (rs+1)*per] {
				locals[j] = float64(s - rs*t)
			}
			// Pin every corner of the box footprint (ext+1 lattice points
			// per dimension, cyclically).
			total := 1
			for dim := 0; dim < d1; dim++ {
				total *= b.ext[dim+1] + 1
			}
			for it := 0; it < total; it++ {
				rem := it
				for dim := d1 - 1; dim >= 0; dim-- {
					span := b.ext[dim+1] + 1
					cornerCoord[dim] = grid.Add(b.lo[dim+1], rem%span, colTiles)
					rem /= span
				}
				key := slab*numCorners + cornerShape.Index(cornerCoord)
				if pinned[key] != nil {
					sc.pinnedKeys = keys
					return nil, unhealthy("two fault boxes pin the same tile corner (separation failed)")
				}
				pinned[key] = locals
				keys = append(keys, key)
			}
		}
	}
	sc.pinnedKeys = keys
	return pinned, nil
}

// colEval evaluates the band bottoms of one (slab, column) pair at a
// time: corner lookups in the pinned table, multilinear blending between
// pinned and default corners (Lemmas 9-11), monotone half-up rounding.
// Both the dense loop and the delta engine drive the same evaluator, so
// the two paths share every rounding-sensitive instruction and stay
// bit-identical.
type colEval struct {
	t, d1, nc, per, numCorners, colTiles int
	colShape                             grid.Shape
	cornerShape                          grid.Shape
	defaults                             []float64
	pinned                               [][]float64
	colCoord, tileCoord, cornerCoord     []int
	x                                    []float64
	cornerKeys                           []int
	cornerVals, scratch                  []float64
	pins                                 [][]float64
}

func newColEval(g *Graph, defaults []float64, pinned [][]float64, cornerShape grid.Shape) *colEval {
	d1 := g.P.D - 1
	nc := 1 << uint(d1)
	return &colEval{
		t: g.P.Tile(), d1: d1, nc: nc, per: g.P.PerSlab(),
		numCorners: cornerShape.Size(), colTiles: g.P.ColTiles(),
		colShape: g.ColShape, cornerShape: cornerShape,
		defaults: defaults, pinned: pinned,
		colCoord: make([]int, d1), tileCoord: make([]int, d1), cornerCoord: make([]int, d1),
		x:          make([]float64, d1),
		cornerKeys: make([]int, nc), cornerVals: make([]float64, nc),
		scratch: make([]float64, nc), pins: make([][]float64, nc),
	}
}

// setColumn computes the column's tile cell, interpolation point and
// corner keys; evalSlab can then be called for any slab.
//
//ftnet:hotpath
func (e *colEval) setColumn(z int) {
	e.colShape.Coord(z, e.colCoord)
	for dim := 0; dim < e.d1; dim++ {
		e.tileCoord[dim] = e.colCoord[dim] / e.t
		e.x[dim] = (float64(e.colCoord[dim]%e.t) + 0.5) / float64(e.t)
	}
	for s := 0; s < e.nc; s++ {
		for dim := 0; dim < e.d1; dim++ {
			if s&(1<<uint(dim)) != 0 {
				e.cornerCoord[dim] = grid.Add(e.tileCoord[dim], 1, e.colTiles)
			} else {
				e.cornerCoord[dim] = e.tileCoord[dim]
			}
		}
		e.cornerKeys[s] = e.cornerShape.Index(e.cornerCoord)
	}
}

// evalSlab writes the per band bottoms of (slab, current column).
//
//ftnet:hotpath
func (e *colEval) evalSlab(bs *bands.Set, slab, z int) {
	base := slab * e.t
	anyPinned := false
	for s := 0; s < e.nc; s++ {
		e.pins[s] = nil
		if arr := e.pinned[slab*e.numCorners+e.cornerKeys[s]]; arr != nil {
			e.pins[s] = arr
			anyPinned = true
		}
	}
	for j := 0; j < e.per; j++ {
		gIdx := slab*e.per + j
		if !anyPinned {
			bs.SetValue(gIdx, z, base+int(e.defaults[j]))
			continue
		}
		for s := 0; s < e.nc; s++ {
			if e.pins[s] != nil {
				e.cornerVals[s] = e.pins[s][j]
			} else {
				e.cornerVals[s] = e.defaults[j]
			}
		}
		var v float64
		if multilinear.Constant(e.cornerVals) {
			v = e.cornerVals[0]
		} else {
			v = multilinear.Eval(e.cornerVals, e.x, e.scratch)
		}
		bs.SetValue(gIdx, z, base+multilinear.RoundHalfUp(v))
	}
}

// interpolate builds the full band family densely: pinned constants over
// box footprints, defaults elsewhere, multilinear blending in between
// (Lemmas 9-11), rounded with the monotone half-up rule, evaluated for
// every (slab, column) of the host. The footprint-local alternative is
// the delta engine's interpolateDelta (session.go).
func (g *Graph) interpolate(boxes []*faultBox, sc *Scratch) (*bands.Set, error) {
	p := g.P
	numSlabs := p.NumSlabs()
	cornerShape := g.cornerShape

	pinned, err := g.buildPinned(boxes, sc, cornerShape)
	if err != nil {
		return nil, err
	}
	bs := bands.NewSet(p.M(), p.W, g.ColShape, p.K())
	ev := sc.colEvalBuf(g, p.defaultOffsets(), pinned, cornerShape)
	for z := 0; z < g.NumCols; z++ {
		ev.setColumn(z)
		for slab := 0; slab < numSlabs; slab++ {
			ev.evalSlab(bs, slab, z)
		}
	}
	return bs, nil
}

// Tolerates decides whether the pipeline classifies the fault set as
// tolerated, running only the placement stages that can make that call:
// box isolation/merging (condition 3 caps), pigeonhole segments and
// padding (conditions 1-2), and corner separation. It returns nil for a
// tolerated set, an *UnhealthyError for a rejected one, and never
// builds bands, extracts or verifies — those stages fail only on
// bug-class invariant violations, so this cheap decision is exactly the
// full pipeline's health classification (the batched churn goldens pin
// the equivalence event by event). sc supplies placement buffers.
//
// The classification is NOT monotone in the fault set: condition 2 can
// reject a set and accept a superset, because an added fault can merge
// two boxes that each needed their own segment in a shared slab into
// one box that needs a single segment (TestToleratesNotMonotone pins a
// three/four-fault counterexample). Callers must not infer a subset's
// status from a superset's, or vice versa.
func (g *Graph) Tolerates(faults *fault.Set, sc *Scratch) error {
	boxes, _, err := g.buildBoxes(faults, sc)
	if err != nil {
		return err
	}
	_, err = g.buildPinned(boxes, sc, g.cornerShape)
	return err
}

// checkAllMasked verifies that every fault is masked by some band.
func (g *Graph) checkAllMasked(bs *bands.Set, faults *fault.Set) error {
	var outErr error
	faults.ForEach(func(idx int) {
		if outErr != nil {
			return
		}
		i, z := g.NodeOf(idx)
		if bs.MaskedBy(z, i) < 0 {
			outErr = fterr.New(fterr.Internal, "core", "fault at row %d column %d left unmasked", i, z)
		}
	})
	return outErr
}
