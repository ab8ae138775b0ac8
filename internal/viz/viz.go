// Package viz renders ASCII pictures of faulty B^2_n instances: the bands
// winding around fault clusters (the paper's Figure 1) and the row of the
// extracted torus jumping diagonally over bands (Figure 2). Only d = 2 is
// renderable.
package viz

import (
	"fmt"
	"strings"

	"ftnet/internal/bands"
	"ftnet/internal/core"
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/grid"
)

// Legend explains the glyphs used by the renderers.
const Legend = "legend: '.' unmasked  '#' band  'X' fault (masked)  '!' fault unmasked (bug)  '*' extracted row"

// Bands renders a window of the host: rows rowLo..rowLo+height-1 (cyclic),
// columns colLo..colLo+width-1 (cyclic). Row indices grow downward.
// Reproduces Figure 1.
func Bands(g *core.Graph, bs *bands.Set, faults *fault.Set, rowLo, colLo, height, width int) (string, error) {
	if g.P.D != 2 {
		return "", fmt.Errorf("viz: rendering requires d=2, got d=%d", g.P.D)
	}
	m := g.P.M()
	n := g.P.N()
	var b strings.Builder
	fmt.Fprintf(&b, "B^2 window rows %d..%d, columns %d..%d (m=%d, n=%d, b=%d)\n",
		rowLo, rowLo+height-1, colLo, colLo+width-1, m, n, g.P.W)
	for dr := 0; dr < height; dr++ {
		row := grid.Add(rowLo, dr, m)
		fmt.Fprintf(&b, "%5d ", row)
		for dc := 0; dc < width; dc++ {
			col := grid.Add(colLo, dc, n)
			b.WriteByte(glyph(g, bs, faults, row, col))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func glyph(g *core.Graph, bs *bands.Set, faults *fault.Set, row, col int) byte {
	masked := bs.MaskedBy(col, row) >= 0
	faulty := faults.Has(g.NodeIndex(row, col))
	switch {
	case faulty && masked:
		return 'X'
	case faulty:
		return '!'
	case masked:
		return '#'
	default:
		return '.'
	}
}

// RowTrace renders the same window with the host image of one guest row
// overlaid, showing the diagonal jumps over bands. Reproduces Figure 2.
func RowTrace(g *core.Graph, bs *bands.Set, faults *fault.Set, emb *embed.Embedding, guestRow, colLo, width, pad int) (string, error) {
	if g.P.D != 2 {
		return "", fmt.Errorf("viz: rendering requires d=2, got d=%d", g.P.D)
	}
	m := g.P.M()
	n := g.P.N()
	numCols := g.NumCols
	// Host rows visited by the guest row across the window; frame them
	// with the minimal covering cyclic interval plus padding.
	hostRows := make(map[int]int, width) // column -> host row
	visited := make([]int, 0, width)
	for dc := 0; dc < width; dc++ {
		col := grid.Add(colLo, dc, n)
		host := emb.Map[guestRow*numCols+col]
		r := host / numCols
		hostRows[col] = r
		visited = append(visited, r)
	}
	lo, extent := grid.CyclicCover(visited, m)
	start := grid.Sub(lo, pad, m)
	height := extent + 2*pad
	if height > m {
		height = m
	}
	var b strings.Builder
	fmt.Fprintf(&b, "guest row %d across columns %d..%d\n", guestRow, colLo, colLo+width-1)
	for dr := 0; dr < height; dr++ {
		row := grid.Add(start, dr, m)
		fmt.Fprintf(&b, "%5d ", row)
		for dc := 0; dc < width; dc++ {
			col := grid.Add(colLo, dc, n)
			if hostRows[col] == row {
				b.WriteByte('*')
				continue
			}
			b.WriteByte(glyph(g, bs, faults, row, col))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// JumpingRow picks a guest row whose host image crosses a band inside
// the window of width columns from colLo (its host rows vary across the
// window), so RowTrace shows the diagonal jumps; row 0 when none does.
func JumpingRow(g *core.Graph, emb *embed.Embedding, colLo, width int) int {
	numCols := g.NumCols
	n := g.P.N()
	for row := 0; row < n; row++ {
		first := emb.Map[row*numCols+colLo%n] / numCols
		for dc := 1; dc < width; dc++ {
			col := (colLo + dc) % n
			if emb.Map[row*numCols+col]/numCols != first {
				return row
			}
		}
	}
	return 0
}

// FaultWindow locates a window around the first fault, or the origin for
// fault-free instances: a convenience for the figure experiments.
func FaultWindow(g *core.Graph, faults *fault.Set, height, width int) (rowLo, colLo int) {
	first := -1
	faults.ForEach(func(idx int) {
		if first < 0 {
			first = idx
		}
	})
	if first < 0 {
		return 0, 0
	}
	i, z := g.NodeOf(first)
	return grid.Sub(i, height/3, g.P.M()), grid.Sub(z, width/3, g.P.N())
}
