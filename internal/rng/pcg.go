package rng

import "math/bits"

// PCG is a PCG XSL-RR 128/64 generator (O'Neill's pcg64): 128 bits of
// LCG state advanced by a per-stream odd increment, folded to 64 output
// bits with an xor-shift-low + random rotation.
//
// Its distinguishing feature over Rand (xoshiro256**) is cheap, provably
// disjoint stream selection: two PCG generators with different stream
// keys traverse different permutations of the state space, so a root
// seed can be split into one independent stream per Monte-Carlo trial
// with no coordination. The parallel trial engine (internal/parallel)
// keys a stream by (root seed, trial index), which is what makes its
// results bit-identical for every worker count.
//
// The zero value is not valid; use NewPCG.
type PCG struct {
	hi, lo uint64 // 128-bit LCG state
	incHi  uint64 // 128-bit increment (odd); fixed per stream
	incLo  uint64
}

// NewPCG returns a generator on the stream selected by stream, seeded by
// seed. Distinct (seed, stream) pairs give independent sequences; the
// same pair always gives the same sequence.
func NewPCG(seed, stream uint64) *PCG {
	p := &PCG{}
	// Expand both 64-bit inputs to 128 bits via splitmix64 so that
	// low-entropy seeds and small consecutive stream keys still land on
	// well-separated streams.
	sLo := SplitMix64(stream)
	sHi := SplitMix64(sLo ^ 0xda3e39cb94b95bdb)
	p.incLo = sLo<<1 | 1 // increment must be odd
	p.incHi = sHi
	p.step()
	dLo := SplitMix64(seed)
	dHi := SplitMix64(dLo ^ 0x9e3779b97f4a7c15)
	var c uint64
	p.lo, c = bits.Add64(p.lo, dLo, 0)
	p.hi, _ = bits.Add64(p.hi, dHi, c)
	p.step()
	return p
}

// step advances the 128-bit LCG: state = state*mul + inc.
func (p *PCG) step() {
	const mulHi, mulLo = 0x2360ed051fc65da4, 0x4385df649fccf645
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	var c uint64
	lo, c = bits.Add64(lo, p.incLo, 0)
	hi, _ = bits.Add64(hi, p.incHi, c)
	p.lo, p.hi = lo, hi
}

// Uint64 returns the next 64 random bits (XSL-RR output function).
func (p *PCG) Uint64() uint64 {
	p.step()
	return bits.RotateLeft64(p.hi^p.lo, -int(p.hi>>58))
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (p *PCG) Intn(n int) int { return intn(p, n) }

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG) Float64() float64 { return float64v(p) }

// Bernoulli returns true with probability pr.
func (p *PCG) Bernoulli(pr float64) bool { return bernoulli(p, pr) }

// Geometric returns the number of failures before the first success with
// success probability pr in (0,1].
func (p *PCG) Geometric(pr float64) int { return geometric(p, pr) }

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (p *PCG) Shuffle(n int, swap func(i, j int)) { shuffle(p, n, swap) }
