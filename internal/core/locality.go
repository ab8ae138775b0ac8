// The all-defaults template of the Theorem 2 pipeline and the
// footprint-local primitives the delta engine (session.go) is built from.
//
// The paper's construction is local by design: bands deviate from their
// default positions only near the black boxes that isolate faults
// (Lemma 5), and the row mapping of Lemma 6 is path-independent
// (Lemma 7), so everything outside a box footprint is provably at its
// default. Each Graph lazily builds, once, a *template* — the
// all-defaults band family, its unmasked-row vector, and a pre-verified
// default embedding. The template is commit zero of every Session, so
// per-trial work is proportional to the fault footprint, not the host
// size:
//
//   - footprintColumns enumerates the columns a box can influence (its
//     footprint ±1 tile), the only ones placement recomputes.
//   - transferFast grows the Lemma 6 row mapping across one column
//     adjacency touching only the bands that moved.
//   - verifyColumn and verifyFaultPass check injectivity, fault avoidance
//     and edge realization only on columns whose row map deviates from
//     the default, relying on the once-verified default embedding for
//     the untouched remainder.
//   - writeColumns and firstUnsynced write and check the row-major
//     embedding map for a sorted list of columns, sweeping it row by row
//     instead of column by column. Only Eval's map sync (syncMap) calls
//     them: the map is a view of the row vectors, and Check never
//     touches it.
//
// The dense pipeline (Extract, VerifyBuf) is the oracle these are pinned
// against, and the ExtractOptions.Dense ablation.
package core

import (
	"fmt"
	"sort"

	"ftnet/internal/bands"
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
)

// template is the lazily built all-defaults state of a Graph, shared
// read-only by every Monte-Carlo worker after construction.
type template struct {
	bs *bands.Set // all-default band family (untracked), validated once
	// defaults[j] is the default local bottom offset of band j within a
	// slab, as used by the multilinear interpolation.
	defaults []float64
	// defaultRows lists the n unmasked rows under the default family in
	// the Lemma 6 anchor order; identical for every column.
	defaultRows []int32
	// maskedRow[i] reports whether host row i is masked under defaults.
	maskedRow []bool
	// err is the terminal build failure, if any (e.g. the default
	// embedding does not verify because an edge class is ablated).
	err error
}

// template returns the graph's all-defaults template, building and
// verifying it on first use. The build bakes in the ablation switches,
// so set DisableVJump/DisableDJump before the first pipeline call.
func (g *Graph) template() (*template, error) {
	g.tplOnce.Do(func() { g.tpl = g.buildTemplate() })
	if g.tpl.err != nil {
		return nil, g.tpl.err
	}
	return g.tpl, nil
}

// defaultOffsets returns the default local band bottoms within a slab:
// band j sits at W + j*spread, matching the dense interpolation.
func (p Params) defaultOffsets() []float64 {
	per := p.PerSlab()
	spread := p.W + 1
	if per > 1 {
		spread = (p.Tile() - 2*p.W - 1) / (per - 1)
	}
	out := make([]float64, per)
	for j := range out {
		out[j] = float64(p.W + j*spread)
	}
	return out
}

func (g *Graph) buildTemplate() *template {
	p := g.P
	t := p.Tile()
	per := p.PerSlab()
	numSlabs := p.NumSlabs()
	n := p.N()
	tpl := &template{defaults: p.defaultOffsets()}

	tpl.bs = bands.NewSet(p.M(), p.W, g.ColShape, p.K())
	for slab := 0; slab < numSlabs; slab++ {
		for j := 0; j < per; j++ {
			gIdx := slab*per + j
			v := slab*t + int(tpl.defaults[j])
			for z := 0; z < g.NumCols; z++ {
				tpl.bs.SetValue(gIdx, z, v)
			}
		}
	}
	if err := tpl.bs.Validate(); err != nil {
		tpl.err = fmt.Errorf("core: default band family invalid: %w", err)
		return tpl
	}

	tpl.defaultRows = tpl.bs.UnmaskedRows(0, make([]int32, 0, n))
	if len(tpl.defaultRows) != n {
		tpl.err = fterr.New(fterr.Internal, "core", "default family leaves %d unmasked rows, want %d", len(tpl.defaultRows), n)
		return tpl
	}
	tpl.maskedRow = make([]bool, p.M())
	for i := range tpl.maskedRow {
		tpl.maskedRow[i] = true
	}
	for _, r := range tpl.defaultRows {
		tpl.maskedRow[r] = false
	}

	// Verify the default embedding once, from first principles, against
	// the fault-free host. Every step reuses this certificate for the
	// columns its faults do not touch.
	e := embed.New(g.guest)
	for i := 0; i < n; i++ {
		base := i * g.NumCols
		host := int(tpl.defaultRows[i]) * g.NumCols
		for z := 0; z < g.NumCols; z++ {
			e.Map[base+z] = host + z
		}
	}
	if err := e.Verify(g, fault.NewSet(g.NumNodes()), nil); err != nil {
		tpl.err = fmt.Errorf("core: default embedding failed verification: %w", err)
	}
	return tpl
}

// footprintColumns enumerates the columns of b's footprint ±1 tile —
// exactly the columns whose band values the box can influence — calling
// fn for each. starts/counts/coord are caller-owned (d-1)-sized work
// buffers (the Scratch's fpStarts, fpCounts and fpCoord). The delta
// engine's re-interpolation and box-copy passes drive this one
// enumerator, so the two agree on the footprint to the column.
//
//ftnet:hotpath
func (g *Graph) footprintColumns(b *faultBox, starts, counts, coord []int, fn func(z int)) {
	p := g.P
	t := p.Tile()
	d1 := p.D - 1
	colTiles := p.ColTiles()
	total := 1
	for dim := 0; dim < d1; dim++ {
		ext := b.ext[dim+1] + 2 // footprint ±1 tile
		if ext > colTiles {
			ext = colTiles
		}
		starts[dim] = grid.Sub(b.lo[dim+1], 1, colTiles) * t
		counts[dim] = ext * t
		total *= counts[dim]
	}
	for it := 0; it < total; it++ {
		rem := it
		for dim := d1 - 1; dim >= 0; dim-- {
			coord[dim] = grid.Add(starts[dim], rem%counts[dim], g.ColShape[dim])
			rem /= counts[dim]
		}
		fn(g.ColShape.Index(coord))
	}
}

// movedBand records a band that slid by one step between two adjacent
// columns, for the footprint-only row transfer.
type movedBand struct {
	bottom int32 // band bottom at the destination column
	up     bool  // band slid up: masked rows jump downward (paper case b)
}

// transferFast grows the Lemma 6 row mapping from column zFrom to zTo
// touching only the bands that actually moved: it first diffs the K band
// bottoms (detecting slope violations outright), memcpys the row vector,
// and applies the ±W jump rule to the rows masked by moved bands. A band
// that slid one step masks exactly one previously unmasked row (the
// untouching gap guarantees the row just beyond the old extent was free),
// and the row vector is cyclically increasing from its first entry, so
// each moved band costs one binary search plus one write instead of a
// whole-vector scan. It also records, in dev, whether the resulting
// vector deviates from base (the vector shared by every clean column) —
// the verifier later skips columns that do not. The dev shortcut in the
// moved case relies on dev[zFrom] being accurate relative to base.
//
//ftnet:hotpath
func (g *Graph) transferFast(bs *bands.Set, base []int32, sc *Scratch, zFrom, zTo int, src, dst []int32, dev []bool) error {
	m := g.P.M()
	w := g.P.W
	k := bs.K()
	moved := sc.movedBuf[:0]
	for gi := 0; gi < k; gi++ {
		bf := bs.Value(gi, zFrom)
		bt := bs.Value(gi, zTo)
		switch {
		case bt == bf:
		case bt == grid.Sub(bf, 1, m):
			moved = append(moved, movedBand{bottom: int32(bt), up: false})
		case bt == grid.Add(bf, 1, m):
			moved = append(moved, movedBand{bottom: int32(bt), up: true})
		default:
			return fterr.New(fterr.Internal, "core", "band %d moved more than one step between columns %d and %d (bottoms %d -> %d)",
				gi, zFrom, zTo, bf, bt)
		}
	}
	sc.movedBuf = moved
	copy(dst, src)
	if len(moved) == 0 {
		dev[zTo] = dev[zFrom]
		return nil
	}
	n := len(src)
	anchor := int(src[0])
	for _, mb := range moved {
		// The single src row the moved band now masks: its new bottom for a
		// downward slide, its new top for an upward one.
		v := int(mb.bottom)
		if mb.up {
			v = grid.Add(v, w-1, m)
		}
		key := grid.FwdGap(anchor, v, m)
		//lint:allow hotpath the sort.Search comparator does not escape the call, so it stays on the stack
		i := sort.Search(n, func(j int) bool { return grid.FwdGap(anchor, int(src[j]), m) >= key })
		if i >= n || int(src[i]) != v {
			return fterr.New(fterr.Internal, "core", "moved band at column %d masks no unmasked row of column %d (row %d)",
				zTo, zFrom, v)
		}
		if mb.up {
			dst[i] = int32(grid.Sub(v, w, m))
		} else {
			dst[i] = int32(grid.Add(v, w, m))
		}
	}
	if dev[zFrom] {
		dev[zTo] = !int32Equal(dst, base)
	} else {
		// src == base and at least one row jumped to a different value, so
		// dst deviates without needing the O(n) comparison.
		dev[zTo] = true
	}
	return nil
}

func int32Equal(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyColumn re-checks one column of the row vectors the embedding is
// written from: host-row range, injectivity, fault avoidance,
// dimension-0 edge realization, and the cross-column edges to all 2(d-1)
// neighbor columns except those for which skipPair reports the pair is
// (or will be) checked from the other side. It reads rows through
// s.rowmap instead of dividing e.Map entries, which keeps the hot loops
// division-free; Eval's map sync then pins the map to the verified
// vectors in one row-major sweep (firstUnsynced). hasFaults (from
// verifyFaultPass) gates the per-row fault check.
//
// Injectivity is checked by the winding count, which the Lemma 6 anchor
// order makes exact: every vector the engine builds is cyclically
// increasing from its first entry, so each cyclic step rows[i] →
// rows[i+1] must rise by exactly 1 modulo m (a torus edge) or by w+1 (a
// vertical jump). Such a cycle winds around the host column a whole
// number of times, counted by the steps that wrap past m, and it visits
// n distinct rows exactly when it winds once. The step rule is at least
// as strict as the same-column condition of Graph.Adjacent; it also
// rejects a backward step, which the engine never produces.
//
//ftnet:hotpath
func (s *Session) verifyColumn(faults *fault.Set, z int, hasFaults bool, skipPair func(zn int) bool) error {
	g := s.g
	p := g.P
	n := p.N()
	numCols := g.NumCols
	m := p.M()
	w := p.W
	rows := s.rowmap[z]
	if len(rows) != n {
		return fterr.New(fterr.Internal, "core", "column %d row vector has %d entries, want %d", z, len(rows), n)
	}
	// One fused pass: range, fault avoidance, and the forward step from
	// the previous row (cyclically) that realizes its dimension-0 guest
	// edge, counting the steps that wrap past m.
	wraps := 0
	prev := int(rows[n-1])
	for i, r32 := range rows {
		r := int(r32)
		if uint(r) >= uint(m) {
			return fterr.New(fterr.Internal, "embed", "guest node (%d,%d) maps to out-of-range host row %d", i, z, r)
		}
		if hasFaults && faults.Has(r*numCols+z) {
			return fterr.New(fterr.Internal, "embed", "guest node %d maps to faulty host node %d", i*numCols+z, r*numCols+z)
		}
		step := r - prev
		if step < 0 {
			step += m
			wraps++
		}
		if step != 1 && (step != w+1 || g.DisableVJump) {
			i0 := (i + n - 1) % n
			return fterr.New(fterr.Internal, "embed", "guest edge (%d,%d)-(%d,%d) maps to host rows %d,%d, not one forward torus step or vertical jump",
				i0, z, i, z, prev, r)
		}
		prev = r
	}
	if wraps != 1 {
		return fterr.New(fterr.Internal, "embed", "column %d row vector winds %d times around the host column (not injective)", z, wraps)
	}
	// Cross-column edges. Column adjacency is checked once per pair; the
	// per-row condition is then Adjacent's cross-column branch (torus
	// step or diagonal jump).
	for _, zn32 := range g.columnNeighbors(z) {
		zn := int(zn32)
		if skipPair(zn) {
			continue
		}
		if !g.columnsAdjacent(z, zn) {
			return fterr.New(fterr.Internal, "core", "columns %d and %d are not adjacent", z, zn)
		}
		nrows := s.rowmap[zn]
		if len(nrows) != n {
			return fterr.New(fterr.Internal, "core", "column %d row vector has %d entries, want %d", zn, len(nrows), n)
		}
		// Adjacent columns' vectors agree outside the rows a band moved
		// across (at most K of n, by the slope condition), so equality
		// short-circuits the distance check for almost every row.
		for i := 0; i < n; i++ {
			if rows[i] == nrows[i] {
				continue
			}
			if di := grid.Dist(int(rows[i]), int(nrows[i]), m); di == w && !g.DisableDJump {
				continue
			}
			return fterr.New(fterr.Internal, "embed", "guest edge (%d,%d)-(%d,%d) maps to non-adjacent host pair (rows %d,%d)",
				i, z, i, zn, rows[i], nrows[i])
		}
	}
	return nil
}

// The embedding map is row-major — guest node (j, z) is entry j·C+z, C =
// NumCols — while the row vectors (rowflat) are column-major, n entries
// per column. Writing or checking one column of the map touches n
// entries C apart (295 KB at d=3), each its own cache line and page, so
// Eval's map sync (syncMap) touches the map only through these two
// sweeps, which visit the listed columns in ascending order within each
// row (writeColumns) or band of syncRows rows (firstUnsynced).

// writeColumns sets the map entries of the listed columns from their row
// vectors: entry j·C+z becomes host node rowmap[z][j]·C+z. cols must be
// sorted ascending and every listed vector must hold n rows.
//
//ftnet:hotpath
func writeColumns(mp []int, numCols, n int, cols []int32, rowmap [][]int32) {
	for j := 0; j < n; j++ {
		row := mp[j*numCols : (j+1)*numCols]
		for _, z32 := range cols {
			z := int(z32)
			row[z] = int(rowmap[z][j])*numCols + z
		}
	}
}

// syncRows is the band height of firstUnsynced: 16 int32 rows are one
// cache line of a row vector.
const syncRows = 16

// firstUnsynced is the read-only twin of writeColumns: it returns a guest
// node (j, z) whose map entry differs from rowmap[z][j]·C+z, or z = -1
// when every listed column is in sync. Unlike writeColumns it reads a
// band of rows per column: its loads stall where stores would not, and
// the band's loads from separate map rows overlap instead of waiting on
// one row at a time.
//
//ftnet:hotpath
func firstUnsynced(mp []int, numCols, n int, cols []int32, rowmap [][]int32) (j, z int) {
	for j0 := 0; j0 < n; j0 += syncRows {
		j1 := min(j0+syncRows, n)
		for _, z32 := range cols {
			z := int(z32)
			for k, r := range rowmap[z][j0:j1] {
				if mp[(j0+k)*numCols+z] != int(r)*numCols+z {
					return j0 + k, z
				}
			}
		}
	}
	return 0, -1
}

// verifyFaultPass makes verifyIncremental's single pass over the fault
// set: every fault in a non-deviating column must be masked under the
// default family (such a column's image is exactly the default rows), and every
// deviating column holding a fault is stamped with the live generation
// in s.faultCol so verifyColumn checks it row by row — and fault-free
// columns skip that check entirely.
//
//ftnet:hotpath
func (s *Session) verifyFaultPass(faults *fault.Set, tpl *template) error {
	numCols := s.g.NumCols
	faultCol, dev := s.faultCol, s.devCols
	gen := bumpGen(faultCol, &s.faultGen)
	var outErr error
	//lint:allow hotpath the ForEach visitor is consumed inside the bitset walk and never escapes; one stack closure per pass
	faults.ForEach(func(idx int) {
		if outErr != nil {
			return
		}
		z := idx % numCols
		if dev[z] {
			faultCol[z] = gen
			return
		}
		if !tpl.maskedRow[idx/numCols] {
			outErr = fterr.New(fterr.Internal, "embed", "faulty host node %d lies in the default image of clean column %d", idx, z)
		}
	})
	return outErr
}
