// Package core implements the paper's central construction B^d_n
// (Theorem 2): a d-dimensional torus C_m x (C_n)^{d-1} with m = (1+eps)n,
// augmented with vertical jumps (+-(b+1) along dimension 0) and diagonal
// jumps (+-b into adjacent columns), which has degree 6d-2 and still
// contains a fault-free n-torus after random node faults of probability
// log^{-3d} n, with high probability.
//
// The package provides the host graph, the healthiness diagnostics of
// Lemma 4, the constructive band-placement algorithm of Lemma 5
// (fault boxes -> pigeonhole segments -> multilinear interpolation), and
// the extraction mapping psi of Lemmas 6-8 that produces a verified
// embedding of (C_n)^d into the fault-free part.
package core

import (
	"fmt"
	"math"

	"ftnet/internal/fterr"
)

// Params fixes an exactly divisible instantiation of B^d_n.
//
// The paper assumes b^2 divides both n and m and leaves round-off implicit;
// we make every divisibility exact by deriving the sizes from four integers:
//
//	tile side      = W^2           (paper: b^2, W is the paper's b)
//	bands per slab = W^2 / Pitch   (paper: eps*b per row of tiles)
//	side           n = Scale * W^2 * (Pitch - W)
//	host height    m = Scale * W^2 * Pitch
//	band count     K = (m-n)/W = Scale * W^2
//
// so that each of the m/W^2 slabs (paper: "rows of tiles") carries exactly
// PerSlab bands and every column ends up with exactly n unmasked nodes.
// Eps = W / (Pitch - W); Pitch >= 3W gives the paper's eps <= 1/2.
type Params struct {
	D     int // dimension d >= 2
	W     int // band width b (paper sets b ~ log n)
	Pitch int // average rows per band, S; must divide W^2, >= 2W+2
	Scale int // multiplier kappa >= 1
}

// Validate checks the structural constraints. All other methods assume a
// validated receiver.
func (p Params) Validate() error {
	if p.D < 2 {
		return fterr.New(fterr.Invalid, "core", "dimension %d < 2 (Theorem 2 requires d >= 2)", p.D)
	}
	if p.W < 4 {
		return fterr.New(fterr.Invalid, "core", "band width %d < 4", p.W)
	}
	if p.Pitch < 2*p.W+2 {
		return fterr.New(fterr.Invalid, "core", "pitch %d < 2W+2 = %d (bands would not fit untouching)", p.Pitch, 2*p.W+2)
	}
	if (p.W*p.W)%p.Pitch != 0 {
		return fterr.New(fterr.Invalid, "core", "pitch %d does not divide W^2 = %d", p.Pitch, p.W*p.W)
	}
	if p.Scale < 1 {
		return fterr.New(fterr.Invalid, "core", "scale %d < 1", p.Scale)
	}
	per := p.PerSlab()
	// Default band positions W, W+spread, ... must fit below W^2-W-1 with
	// gaps >= W+1 so that untouching holds across slab boundaries.
	if p.W+(per-1)*(p.W+1) > p.W*p.W-p.W-1 {
		return fterr.New(fterr.Invalid, "core", "%d bands per slab cannot fit in a %d-row slab with width %d", per, p.W*p.W, p.W)
	}
	if p.ColTiles() < 5 {
		return fterr.New(fterr.Invalid, "core", "only %d column tiles per dimension; need >= 5 for fault isolation", p.ColTiles())
	}
	if p.NumSlabs() < 5 {
		return fterr.New(fterr.Invalid, "core", "only %d slabs; need >= 5 for fault isolation", p.NumSlabs())
	}
	return nil
}

// N returns the guest torus side n.
func (p Params) N() int { return p.Scale * p.W * p.W * (p.Pitch - p.W) }

// M returns the host cycle length m of dimension 0.
func (p Params) M() int { return p.Scale * p.W * p.W * p.Pitch }

// K returns the number of bands, (m-n)/b.
func (p Params) K() int { return p.Scale * p.W * p.W }

// Tile returns the tile side b^2.
func (p Params) Tile() int { return p.W * p.W }

// NumSlabs returns m / b^2, the number of rows of tiles.
func (p Params) NumSlabs() int { return p.Scale * p.Pitch }

// PerSlab returns the number of bands carried by each slab.
func (p Params) PerSlab() int { return p.W * p.W / p.Pitch }

// ColTiles returns n / b^2, the tiles per column dimension.
func (p Params) ColTiles() int { return p.Scale * (p.Pitch - p.W) }

// Eps returns the node-redundancy constant eps with m = (1+eps)n.
func (p Params) Eps() float64 { return float64(p.W) / float64(p.Pitch-p.W) }

// NumNodes returns the host node count m * n^{d-1}.
func (p Params) NumNodes() int {
	total := p.M()
	for i := 1; i < p.D; i++ {
		total *= p.N()
	}
	return total
}

// Degree returns the uniform host degree 6d-2 (Theorem 2).
func (p Params) Degree() int { return 6*p.D - 2 }

// BoxCap returns the maximum tolerated fault-box extent in tiles per
// dimension. It mirrors the paper's s <= b frame bound: a frame of size
// s <= W has interior at most W-2 tiles wide.
func (p Params) BoxCap() int {
	if p.W-2 < 3 {
		return 3
	}
	return p.W - 2
}

// TheoremFailureProb returns log^{-3d}(n), the node-failure probability
// under which Theorem 2 guarantees survival with probability
// 1 - n^{-Omega(log log n)}. Logarithms are base 2 as in the paper.
func (p Params) TheoremFailureProb() float64 {
	return math.Pow(math.Log2(float64(p.N())), -3*float64(p.D))
}

// String summarizes the instance.
func (p Params) String() string {
	return fmt.Sprintf("B^%d_n{n=%d m=%d b=%d eps=%.3f K=%d perSlab=%d}",
		p.D, p.N(), p.M(), p.W, p.Eps(), p.K(), p.PerSlab())
}

// FitParams chooses parameters for dimension d with side at least minSide
// and redundancy at most maxEps, following the paper's b ~ log2 n. It
// returns an error when no divisor structure fits (which cannot happen for
// maxEps >= 0.1 and minSide >= 64).
func FitParams(d, minSide int, maxEps float64) (Params, error) {
	if minSide < 16 {
		minSide = 16
	}
	if maxEps <= 0 {
		return Params{}, fterr.New(fterr.Invalid, "core", "maxEps must be positive")
	}
	// Policy: the paper wants b ~ log2(n), but a large b forces n up to a
	// multiple of b^2(pitch-b). Among candidate widths, prefer the largest
	// whose side overshoots minSide by at most 3x (approximating b ~ log n
	// without wasting nodes); fall back to the smallest instance overall.
	b0 := int(math.Round(math.Log2(float64(minSide))))
	best, bestPreferred := Params{}, Params{}
	found, foundPreferred := false, false
	for w := 4; w <= b0+4; w++ {
		// Smallest divisor pitch of w^2 with eps = w/(pitch-w) <= maxEps and
		// pitch >= 2w+2.
		minPitch := int(math.Ceil(float64(w) * (1 + 1/maxEps)))
		if minPitch < 2*w+2 {
			minPitch = 2*w + 2
		}
		for pitch := minPitch; pitch <= w*w; pitch++ {
			if (w*w)%pitch != 0 {
				continue
			}
			unit := w * w * (pitch - w)
			scale := (minSide + unit - 1) / unit
			p := Params{D: d, W: w, Pitch: pitch, Scale: scale}
			if p.Validate() != nil {
				continue
			}
			if !found || p.NumNodes() < best.NumNodes() {
				best, found = p, true
			}
			if p.N() <= 3*minSide && (!foundPreferred || p.W > bestPreferred.W) {
				bestPreferred, foundPreferred = p, true
			}
			break // larger pitches only grow the instance
		}
	}
	if foundPreferred {
		return bestPreferred, nil
	}
	if !found {
		return Params{}, fterr.New(fterr.Invalid, "core", "no parameters fit d=%d minSide=%d maxEps=%g", d, minSide, maxEps)
	}
	return best, nil
}
