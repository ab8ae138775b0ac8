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
	"ftnet/internal/torus"
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
	// the fault-free host. Every Eval reuses this certificate for the
	// columns its faults do not touch.
	guest, err := torus.NewUniform(torus.TorusKind, p.D, n)
	if err != nil {
		tpl.err = err
		return tpl
	}
	e := embed.New(guest)
	for i := 0; i < n; i++ {
		base := i * g.NumCols
		host := int(tpl.defaultRows[i]) * g.NumCols
		for z := 0; z < g.NumCols; z++ {
			e.Map[base+z] = host + z
		}
	}
	if err := e.Verify(NewHostView(g, fault.NewSet(g.NumNodes()), nil)); err != nil {
		tpl.err = fmt.Errorf("core: default embedding failed verification: %w", err)
	}
	return tpl
}

// footprintColumns enumerates the columns of b's footprint ±1 tile —
// exactly the columns whose band values the box can influence — calling
// fn for each. starts/counts/coord are caller-owned (d-1)-sized work
// buffers (Scratch.footprintBufs). The delta engine's re-interpolation
// and box-copy passes drive this one enumerator, so the two agree on the
// footprint to the column.
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

// verifyColumn re-checks one column of the embedding: host-row range,
// injectivity, fault avoidance, dimension-0 edge realization, the
// cross-column edges to all 2(d-1) neighbor columns except those for
// which skipPair reports the pair is (or will be) checked from the other
// side — and that the embedding's map agrees with the scratch row
// vectors the checks read from. Reading rows through sc.rowmap instead
// of dividing e.Map entries keeps the hot loops division-free; the
// explicit sync check preserves the certificate's strength (every e.Map
// entry of the column is pinned to the verified row vector). hasFaults
// (from verifyFaultPass) gates the per-row fault check.
//
//ftnet:hotpath
func (g *Graph) verifyColumn(e *embed.Embedding, faults *fault.Set, sc *Scratch, z int, hasFaults bool, skipPair func(zn int) bool) error {
	p := g.P
	n := p.N()
	numCols := g.NumCols
	if len(e.Map) != e.Guest.N() {
		return fterr.New(fterr.Internal, "embed", "map has %d entries, guest has %d nodes", len(e.Map), e.Guest.N())
	}
	m := p.M()
	w := p.W
	colSeen := sc.colSeenBuf(m)
	ncoord := sc.ncoordBuf(p.D - 1)
	rows := sc.rowmap[z]
	if len(rows) != n {
		return fterr.New(fterr.Internal, "core", "column %d row vector has %d entries, want %d", z, len(rows), n)
	}
	sc.colGen++
	gen := sc.colGen
	// One fused pass: membership, sync, injectivity, fault avoidance, and
	// the dimension-0 guest edge to the next row (cyclically) — a torus
	// step or a vertical jump, the same-column conditions of
	// Graph.Adjacent, with m and w hoisted out of the loop.
	for i := 0; i < n; i++ {
		r := int(rows[i])
		if r < 0 || r >= m {
			return fterr.New(fterr.Internal, "embed", "guest node (%d,%d) maps to out-of-range host row %d", i, z, r)
		}
		u := r*numCols + z
		if e.Map[i*numCols+z] != u {
			return fterr.New(fterr.Internal, "core", "embedding out of sync with row vector at guest node (%d,%d)", i, z)
		}
		if colSeen[r] == gen {
			return fterr.New(fterr.Internal, "embed", "host node %d hosts two guest nodes (not injective)", u)
		}
		colSeen[r] = gen
		if hasFaults && faults.Has(u) {
			return fterr.New(fterr.Internal, "embed", "guest node %d maps to faulty host node %d", i*numCols+z, u)
		}
		i2 := i + 1
		if i2 == n {
			i2 = 0
		}
		r2 := int(rows[i2])
		if r2-r == 1 {
			continue // plain torus step, the overwhelmingly common case
		}
		di := grid.Dist(r, r2, m)
		if di == 1 || (di == w+1 && !g.DisableVJump) {
			continue
		}
		return fterr.New(fterr.Internal, "embed", "guest edge (%d,%d)-(%d,%d) maps to non-adjacent host rows %d,%d",
			i, z, i2, z, rows[i], rows[i2])
	}
	// Cross-column edges. Column adjacency is checked once per pair; the
	// per-row condition is then Adjacent's cross-column branch (torus
	// step or diagonal jump).
	g.ColShape.Coord(z, ncoord)
	for dim := range g.ColShape {
		orig := ncoord[dim]
		for _, delta := range [2]int{1, -1} {
			if delta == 1 {
				ncoord[dim] = grid.Add(orig, 1, g.ColShape[dim])
			} else {
				ncoord[dim] = grid.Sub(orig, 1, g.ColShape[dim])
			}
			zn := g.ColShape.Index(ncoord)
			if skipPair(zn) {
				continue
			}
			if !g.columnsAdjacent(z, zn) {
				return fterr.New(fterr.Internal, "core", "columns %d and %d are not adjacent", z, zn)
			}
			nrows := sc.rowmap[zn]
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
		ncoord[dim] = orig
	}
	return nil
}

// verifyFaultPass makes verifyIncremental's single pass over the fault
// set: every fault in a non-deviating column must be masked under the
// default family (such a column's image is exactly the default rows), and every
// deviating column holding a fault is marked in the returned
// generation-counted table so verifyColumn checks it row by row — and
// fault-free columns skip that check entirely.
//
//ftnet:hotpath
func (g *Graph) verifyFaultPass(faults *fault.Set, tpl *template, sc *Scratch, dev []bool) ([]int32, int32, error) {
	numCols := g.NumCols
	faultCol, gen := sc.faultColBuf(numCols)
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
	return faultCol, gen, outErr
}
