package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ftnet/internal/fault"
	"ftnet/internal/grid"
	"ftnet/internal/rng"
)

// Tests for the placement internals: box algebra, pigeonhole segments,
// padding, and the structural invariants the interpolation relies on.

func TestChebyshevDeltas(t *testing.T) {
	for d := 1; d <= 3; d++ {
		deltas := genChebyshevDeltas(d)
		want := 1
		for i := 0; i < d; i++ {
			want *= 3
		}
		want-- // minus the zero vector
		if len(deltas) != want {
			t.Errorf("d=%d: %d deltas, want %d", d, len(deltas), want)
		}
		seen := map[string]bool{}
		for _, dl := range deltas {
			key := ""
			allZero := true
			for _, v := range dl {
				key += string(rune('a' + v + 1))
				if v != 0 {
					allZero = false
				}
			}
			if allZero {
				t.Errorf("d=%d: zero delta emitted", d)
			}
			if seen[key] {
				t.Errorf("d=%d: duplicate delta %v", d, dl)
			}
			seen[key] = true
		}
	}
}

func TestInitialBoxesSingleton(t *testing.T) {
	shape := grid.Shape{10, 8}
	boxes := tileBoxes([]int{3*8 + 5}, shape)
	if len(boxes) != 1 {
		t.Fatalf("%d boxes", len(boxes))
	}
	b := boxes[0]
	if b.lo[0] != 3 || b.lo[1] != 5 || b.ext[0] != 1 || b.ext[1] != 1 {
		t.Errorf("box = %+v", b)
	}
}

func TestInitialBoxesMergesComponents(t *testing.T) {
	shape := grid.Shape{10, 8}
	// Tiles (2,2) and (3,3) are diagonal: one component. Tile (7,7) is far.
	tiles := []int{2*8 + 2, 3*8 + 3, 7*8 + 7}
	boxes := tileBoxes(tiles, shape)
	if len(boxes) != 2 {
		t.Fatalf("%d boxes, want 2", len(boxes))
	}
}

func TestInitialBoxesWrap(t *testing.T) {
	shape := grid.Shape{10, 8}
	// Tiles (9,7) and (0,0) touch across both wraps.
	boxes := tileBoxes([]int{9*8 + 7, 0}, shape)
	if len(boxes) != 1 {
		t.Fatalf("%d boxes, want 1 (wrap adjacency)", len(boxes))
	}
	if boxes[0].ext[0] != 2 || boxes[0].ext[1] != 2 {
		t.Errorf("wrap box extents = %v", boxes[0].ext)
	}
}

// tileBoxes runs initialBoxes on the faulty tiles the way buildBoxes
// does: sorted and numbered in a scratch's tile table (numberTiles).
func tileBoxes(tiles []int, shape grid.Shape) []*faultBox {
	sc := NewScratch()
	tiles = slices.Clone(tiles)
	sc.tileSeen = make([]int32, shape.Size())
	numberTiles(sc.tileSeen, tiles)
	return initialBoxes(tiles, shape, genChebyshevDeltas(len(shape)), sc)
}

// initialBoxesRef is the map-based grouping initialBoxes replaced: a
// map from tile to position for the neighbor lookups, a map of member
// lists per root, and the roots sorted by first member.
func initialBoxesRef(faultyTiles []int, tileShape grid.Shape, deltas [][]int) []*faultBox {
	if len(faultyTiles) == 0 {
		return nil
	}
	index := make(map[int]int, len(faultyTiles))
	for i, t := range faultyTiles {
		index[t] = i
	}
	parent := make([]int, len(faultyTiles))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	d := len(tileShape)
	coord := make([]int, d)
	ncoord := make([]int, d)
	for i, t := range faultyTiles {
		tileShape.Coord(t, coord)
		for _, delta := range deltas {
			for j := range coord {
				ncoord[j] = grid.Add(coord[j], delta[j], tileShape[j])
			}
			if ni, ok := index[tileShape.Index(ncoord)]; ok {
				union(i, ni)
			}
		}
	}
	groups := make(map[int][]int)
	for i, t := range faultyTiles {
		r := find(i)
		groups[r] = append(groups[r], t)
	}
	var boxes []*faultBox
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(a, b int) bool { return groups[roots[a]][0] < groups[roots[b]][0] })
	for _, r := range roots {
		members := groups[r]
		b := &faultBox{lo: make([]int, d), ext: make([]int, d)}
		coords := make([]int, len(members))
		buf := make([]int, d)
		for dim := 0; dim < d; dim++ {
			for i, m := range members {
				tileShape.Coord(m, buf)
				coords[i] = buf[dim]
			}
			b.lo[dim], b.ext[dim] = grid.CyclicCover(coords, tileShape[dim])
		}
		boxes = append(boxes, b)
	}
	return boxes
}

// TestInitialBoxesMatchesReference pins the table-based grouping to the
// map-based one it replaced: on random faulty-tile sets at d=2 and d=3,
// sparse to dense, and on crafted wrap-around and diagonal contacts, both
// return the same boxes (lo, ext) in the same order, and the scratch's
// tile table is all-zero afterwards. One scratch serves every case, so an
// entry left behind would also corrupt the cases after it.
func TestInitialBoxesMatchesReference(t *testing.T) {
	sc := NewScratch()
	check := func(name string, tiles []int, shape grid.Shape) {
		t.Helper()
		tiles = slices.Clone(tiles)
		sc.tileSeen = grow(sc.tileSeen, shape.Size())
		index := sc.tileSeen
		numberTiles(index, tiles)
		deltas := genChebyshevDeltas(len(shape))
		got := initialBoxes(tiles, shape, deltas, sc)
		want := initialBoxesRef(tiles, shape, deltas)
		if len(got) != len(want) {
			t.Fatalf("%s: %d boxes, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].lo, want[i].lo) || !slices.Equal(got[i].ext, want[i].ext) {
				t.Fatalf("%s: box %d = lo %v ext %v, reference lo %v ext %v",
					name, i, got[i].lo, got[i].ext, want[i].lo, want[i].ext)
			}
		}
		for ti, v := range index {
			if v != 0 {
				t.Fatalf("%s: tile table entry %d = %d after initialBoxes, want 0", name, ti, v)
			}
		}
	}

	// Crafted contacts: across both wraps diagonally, a diagonal chain,
	// and a d=3 corner touching its antipode through all three wraps.
	s2 := grid.Shape{10, 8}
	check("diagonal wrap", []int{9*8 + 7, 0, 4*8 + 4}, s2)
	check("diagonal chain", []int{2*8 + 2, 3*8 + 3, 4*8 + 2, 7*8 + 7, 6*8 + 0}, s2)
	s3 := grid.Shape{5, 4, 6}
	check("3d antipodes", []int{s3.Index([]int{4, 3, 5}), s3.Index([]int{0, 0, 0}), s3.Index([]int{2, 1, 3})}, s3)

	r := rng.New(17)
	wrapped := 0
	for _, shape := range []grid.Shape{{7, 5}, {12, 9}, {3, 4}, {5, 4, 6}, {4, 3, 3}, {8, 7, 5}} {
		for round := 0; round < 40; round++ {
			p := 0.02 + 0.5*float64(round%8)/8
			var tiles []int
			for ti := 0; ti < shape.Size(); ti++ {
				if r.Float64() < p {
					tiles = append(tiles, ti)
				}
			}
			check(fmt.Sprintf("shape %v round %d", shape, round), tiles, shape)
			for _, b := range initialBoxesRef(tiles, shape, genChebyshevDeltas(len(shape))) {
				for dim, side := range shape {
					if b.ext[dim] < side && b.lo[dim]+b.ext[dim] > side {
						wrapped++
					}
				}
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no random box wrapped around the tile grid; the cases miss the wrap")
	}
}

func TestMergeBoxesFixedPoint(t *testing.T) {
	shape := grid.Shape{20, 20}
	// Three boxes in a chain, each within 1 tile of the next: must all merge.
	mk := func(r, c int) *faultBox {
		return &faultBox{lo: []int{r, c}, ext: []int{1, 1}}
	}
	boxes := mergeBoxes([]*faultBox{mk(2, 2), mk(3, 3), mk(4, 4), mk(15, 15)}, shape)
	// The diagonal chain (2,2)-(3,3)-(4,4) is Chebyshev-adjacent pairwise
	// and must collapse into one box; (15,15) stays alone. Boxes at
	// Chebyshev distance 2 (one separating white tile) must NOT merge —
	// that is exactly the separation the interpolation needs.
	if len(boxes) != 2 {
		t.Fatalf("%d boxes after merge, want 2", len(boxes))
	}
	sep := mergeBoxes([]*faultBox{mk(2, 2), mk(4, 4)}, shape)
	if len(sep) != 2 {
		t.Fatalf("distance-2 boxes merged (lost the white separator)")
	}
	// No two remaining boxes may be near each other.
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxesNear(boxes[i], boxes[j], shape) {
				t.Error("merge fixed point not reached")
			}
		}
	}
}

func TestPigeonholeSegmentsCoverAndSpacing(t *testing.T) {
	g := mustGraph(t, testParams2D())
	w := g.P.W
	f := func(rawRows []uint16) bool {
		if len(rawRows) == 0 {
			return true
		}
		// Confine rows to a plausible box height and dedupe/sort.
		box := &faultBox{lo: []int{0, 0}, ext: []int{3, 1}}
		span := 3 * g.P.Tile()
		rows := map[int]bool{}
		for _, r := range rawRows {
			rows[int(r)%span] = true
		}
		// Keep the fault count small enough for the pigeonhole to work.
		box.faultRows = box.faultRows[:0]
		for r := range rows {
			if len(box.faultRows) >= w {
				break
			}
			box.faultRows = append(box.faultRows, r)
		}
		sortInts(box.faultRows)
		if err := g.pigeonholeSegments(box, NewScratch()); err != nil {
			// The pigeonhole can legitimately fail for adversarial dense
			// rows; the property below only applies to successes.
			return strings.Contains(err.Error(), "unhealthy")
		}
		// Every fault row covered; spacing >= w+1.
		for _, r := range box.faultRows {
			covered := false
			for _, s := range box.segs {
				if r >= s && r < s+w {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		for i := 1; i < len(box.segs); i++ {
			if box.segs[i]-box.segs[i-1] < w+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestPadBoxFillsEverySlab(t *testing.T) {
	g := mustGraph(t, testParams2D())
	per := g.P.PerSlab()
	w := g.P.W
	box := &faultBox{lo: []int{0, 0}, ext: []int{3, 1}}
	box.faultRows = []int{5, 40, 90} // a few sparse faults
	if err := g.pigeonholeSegments(box, NewScratch()); err != nil {
		t.Fatal(err)
	}
	added, err := g.padBox(box, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if added != 3*per-len(box.segs)+added {
		// added = total - original segments
		t.Logf("added %d fillers", added)
	}
	if len(box.segs) != 3*per {
		t.Fatalf("%d segments over 3 slabs, want %d", len(box.segs), 3*per)
	}
	for rs := 0; rs < 3; rs++ {
		n := 0
		for _, s := range box.segs {
			if s/g.P.Tile() == rs {
				n++
			}
		}
		if n != per {
			t.Errorf("slab %d has %d segments, want %d", rs, n, per)
		}
	}
	for i := 1; i < len(box.segs); i++ {
		if box.segs[i]-box.segs[i-1] < w+1 {
			t.Errorf("padding broke untouching: %d then %d", box.segs[i-1], box.segs[i])
		}
	}
}

func TestPadBoxOverfullSlabUnhealthy(t *testing.T) {
	g := mustGraph(t, testParams2D())
	per := g.P.PerSlab()
	w := g.P.W
	box := &faultBox{lo: []int{0, 0}, ext: []int{1, 1}}
	// More untouching segments in one slab than capacity.
	for i := 0; i <= per; i++ {
		box.segs = append(box.segs, i*(w+1))
	}
	if _, err := g.padBox(box, NewScratch()); err == nil {
		t.Error("overfull slab not rejected")
	}
}

// TestPlacementInvariantsRandom is the main property test: for random
// sparse fault sets, successful placements always yield a valid family
// masking every fault, with exactly K bands.
func TestPlacementInvariantsRandom(t *testing.T) {
	g := mustGraph(t, testParams2D())
	f := func(seed uint64, densityByte uint8) bool {
		density := 2e-5 + float64(densityByte)*2e-6 // up to ~25x theorem rate
		faults := fault.NewSet(g.NumNodes())
		faults.Bernoulli(rng.New(seed), density)
		bs, rep, err := g.PlaceBands(faults)
		if err != nil {
			_, isUnhealthy := err.(*UnhealthyError)
			return isUnhealthy // failures must be typed, never panics/bugs
		}
		if bs.K() != g.P.K() {
			return false
		}
		if bs.Validate() != nil {
			return false
		}
		masked := true
		faults.ForEach(func(idx int) {
			i, z := g.NodeOf(idx)
			if bs.MaskedBy(z, i) < 0 {
				masked = false
			}
		})
		return masked && rep.Faults == faults.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestExtractionOrderPreserved checks the structural property behind
// Lemma 7: along any single column step, the cyclic order of unmasked
// rows is preserved by the transfer (psi is a cyclic-order isomorphism).
func TestExtractionOrderPreserved(t *testing.T) {
	g := mustGraph(t, testParams2D())
	faults := fault.NewSet(g.NumNodes())
	faults.Add(g.NodeIndex(100, 100))
	faults.Add(g.NodeIndex(130, 130))
	res, err := g.ContainTorus(faults, core_extract_opts())
	if err != nil {
		t.Fatal(err)
	}
	numCols := g.NumCols
	n := g.P.N()
	m := g.P.M()
	for _, z := range []int{0, 50, 100, numCols - 1} {
		zn := (z + 1) % numCols
		// Images of consecutive guest rows must stay in increasing cyclic
		// order with unit gaps in the cyclic ordering of unmasked rows.
		prev := res.Embedding.Map[0*numCols+zn] / numCols
		total := 0
		for i := 1; i <= n; i++ {
			cur := res.Embedding.Map[(i%n)*numCols+zn] / numCols
			gap := grid.FwdGap(prev, cur, m)
			if gap == 0 {
				t.Fatalf("column %d: duplicate row image", zn)
			}
			total += gap
			prev = cur
		}
		if total != m {
			t.Fatalf("column %d: row images wind %d times around the cycle", zn, total/m)
		}
	}
}

func core_extract_opts() ExtractOptions { return ExtractOptions{CheckConsistency: true} }

// BenchmarkPadBox measures the sorted-merge filler insertion on a
// realistically sparse box (the hot shape: a few pigeonhole segments,
// many fillers). The previous implementation re-sorted the whole list
// and rescanned every segment per candidate position.
func BenchmarkPadBox(b *testing.B) {
	g, err := NewGraph(testParams2D())
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScratch()
	base := &faultBox{lo: []int{0, 0}, ext: []int{3, 1}}
	base.faultRows = []int{5, 40, 75, 100}
	if err := g.pigeonholeSegments(base, sc); err != nil {
		b.Fatal(err)
	}
	segs := append([]int(nil), base.segs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box := *base
		box.segs = append(box.segs[:0], segs...)
		if _, err := g.padBox(&box, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestToleratesNotMonotone pins the counterexample that rules out any
// "evaluate the batch end, infer the prefixes" scheme in the churn
// layer: the health classification is not monotone in the fault set.
// On this host, three spread-out faults need two pigeonhole segments in
// a shared slab (capacity 1 — condition 2 rejects), while ADDING a
// fourth fault between them merges the boxes into one that needs a
// single segment (tolerated again). The test also pins that the
// placement-only probe agrees with the full pipeline on both states —
// the equivalence the batched churn evaluator is built on.
func TestToleratesNotMonotone(t *testing.T) {
	g := mustGraph(t, Params{D: 2, W: 4, Pitch: 16, Scale: 1})
	smaller := []int{1278, 20426, 21974}
	larger := []int{1278, 20426, 21974, 20648}
	sc := NewScratch()

	class := func(idxs []int) bool {
		faults := fault.NewSet(g.NumNodes())
		for _, u := range idxs {
			faults.Add(u)
		}
		probeErr := g.Tolerates(faults, sc)
		_, fullErr := g.ContainTorus(faults, ExtractOptions{Dense: true})
		for _, err := range []error{probeErr, fullErr} {
			if err != nil {
				if _, ok := err.(*UnhealthyError); !ok {
					t.Fatalf("faults %v: bug-class error: %v", idxs, err)
				}
			}
		}
		if (probeErr == nil) != (fullErr == nil) {
			t.Fatalf("faults %v: probe says %v, full pipeline says %v", idxs, probeErr, fullErr)
		}
		return probeErr == nil
	}
	if class(smaller) {
		t.Fatalf("faults %v unexpectedly tolerated; the counterexample host drifted", smaller)
	}
	if !class(larger) {
		t.Fatalf("faults %v (a superset!) unexpectedly rejected; the counterexample host drifted", larger)
	}
}
