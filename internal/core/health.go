package core

import (
	"slices"
	"sort"

	"ftnet/internal/fault"
	"ftnet/internal/grid"
)

// Health reports the paper's three healthiness conditions (Lemma 4) for a
// faulty instance of B^d_n. These are diagnostics: the band placer uses its
// own (slightly different, constructive) sufficient conditions, but the
// Monte-Carlo experiments track the paper's definition so that measured
// failure rates can be compared with Lemma 4's bound.
//
// Conditions (paper, Section 3):
//  1. every brick (b^2 x b^3 x ... x b^3 tiled submesh) contains 2b
//     consecutive fault-free rows;
//  2. every brick contains at most eps*b faults;
//  3. every node is enclosed by a fault-free s-frame with s <= b (checked
//     here per tile using concentric frames, as in the proof of Lemma 4).
type Health struct {
	Cond1OK bool // fault-free 2b-row run in every brick
	Cond2OK bool // brick fault counts within eps*b
	Cond3OK bool // every tile enclosed by a fault-free frame

	MaxBrickFaults  int // largest per-brick fault count observed
	BricksNoFreeRun int // bricks violating condition 1
	TilesUnenclosed int // tiles violating condition 3
	Threshold       int // the eps*b bound used for condition 2
}

// Healthy reports whether all three conditions hold.
func (h *Health) Healthy() bool { return h.Cond1OK && h.Cond2OK && h.Cond3OK }

// CheckHealth evaluates Lemma 4's healthiness conditions.
func (g *Graph) CheckHealth(faults *fault.Set) *Health {
	p := g.P
	t := p.Tile()
	w := p.W
	h := &Health{Cond1OK: true, Cond2OK: true, Cond3OK: true}
	// eps * b with eps = W/(Pitch-W); at least 1 so isolated faults are
	// always allowed (the paper's eps*b is >= 1 for its asymptotic b).
	h.Threshold = (w * w) / (p.Pitch - w)
	if h.Threshold < 1 {
		h.Threshold = 1
	}

	// Brick geometry: 1 slab tall, W tiles wide per column dimension
	// (remainder bricks at the boundary are smaller; the conditions only
	// get easier for them).
	colTiles := p.ColTiles()
	bricksPerDim := (colTiles + w - 1) / w
	brickShape := make(grid.Shape, p.D)
	brickShape[0] = p.NumSlabs()
	for i := 1; i < p.D; i++ {
		brickShape[i] = bricksPerDim
	}

	brickFaultRows := make(map[int][]int) // brick -> relative fault rows
	brickCount := make(map[int]int)
	coord := make([]int, p.D-1)
	bcoord := make([]int, p.D)
	faults.ForEach(func(idx int) {
		i, z := g.NodeOf(idx)
		g.ColShape.Coord(z, coord)
		bcoord[0] = i / t
		for j, c := range coord {
			bcoord[j+1] = (c / t) / w
		}
		b := brickShape.Index(bcoord)
		brickCount[b]++
		brickFaultRows[b] = append(brickFaultRows[b], i%t)
	})

	for b, cnt := range brickCount {
		if cnt > h.MaxBrickFaults {
			//lint:allow determinism guarded max-reduction: max commutes, so the final MaxBrickFaults is iteration-order-independent
			h.MaxBrickFaults = cnt
		}
		if cnt > h.Threshold {
			h.Cond2OK = false
		}
		rows := brickFaultRows[b]
		sort.Ints(rows)
		rows = slices.Compact(rows)
		if !hasFreeRun(rows, t, 2*w) {
			h.Cond1OK = false
			h.BricksNoFreeRun++
		}
	}

	// Condition 3 via concentric tile frames of Chebyshev radius 1..(w-1)/2.
	tileShape := g.TileShape()
	tf := g.tileFaultCounts(faults, tileShape)
	maxRho := (w - 1) / 2
	for dim := range tileShape {
		if lim := (tileShape[dim] - 1) / 2; lim < maxRho {
			maxRho = lim
		}
	}
	numTiles := tileShape.Size()
	tcoord := make([]int, p.D)
	for tile := 0; tile < numTiles; tile++ {
		tileShape.Coord(tile, tcoord)
		enclosed := false
		for rho := 1; rho <= maxRho && !enclosed; rho++ {
			enclosed = g.ringFaultFree(tf, tileShape, tcoord, rho)
		}
		if !enclosed {
			h.Cond3OK = false
			h.TilesUnenclosed++
		}
	}
	return h
}

// tileFaultCounts returns per-tile fault counts over the full tile grid.
func (g *Graph) tileFaultCounts(faults *fault.Set, tileShape grid.Shape) []int32 {
	t := g.P.Tile()
	colTileShape := grid.Shape(tileShape[1:])
	counts := make([]int32, tileShape.Size())
	coord := make([]int, g.P.D-1)
	tcoord := make([]int, g.P.D-1)
	faults.ForEach(func(idx int) {
		i, z := g.NodeOf(idx)
		g.ColShape.Coord(z, coord)
		for j, c := range coord {
			tcoord[j] = c / t
		}
		counts[(i/t)*colTileShape.Size()+colTileShape.Index(tcoord)]++
	})
	return counts
}

// ringFaultFree reports whether every tile at Chebyshev distance exactly
// rho from center is fault-free.
func (g *Graph) ringFaultFree(tf []int32, tileShape grid.Shape, center []int, rho int) bool {
	d := len(tileShape)
	coord := make([]int, d)
	var rec func(dim int, onBoundary bool) bool
	rec = func(dim int, onBoundary bool) bool {
		if dim == d {
			if !onBoundary {
				return true
			}
			return tf[tileShape.Index(coord)] == 0
		}
		for delta := -rho; delta <= rho; delta++ {
			coord[dim] = grid.Add(center[dim], delta, tileShape[dim])
			if !rec(dim+1, onBoundary || delta == -rho || delta == rho) {
				return false
			}
		}
		return true
	}
	return rec(0, false)
}

// hasFreeRun reports whether the sorted distinct fault rows leave a run of
// at least need consecutive fault-free rows within [0, span).
func hasFreeRun(rows []int, span, need int) bool {
	if len(rows) == 0 {
		return span >= need
	}
	prev := -1
	for _, r := range rows {
		if r-prev-1 >= need {
			return true
		}
		prev = r
	}
	return span-prev-1 >= need
}
