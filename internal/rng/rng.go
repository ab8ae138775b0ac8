// Package rng implements small, fast, deterministic random number
// generators — xoshiro256** (Rand) for sequential use and pcg64 (PCG)
// for splittable per-trial streams — plus a stateless splitmix64-based
// hash used for lazily evaluated per-edge fault decisions.
//
// The standard library's math/rand would work, but experiments need
// reproducible streams that are cheap to split by (trial, purpose) keys, and
// fault injection on implicit edge sets needs a pure function of the edge
// identity. Both are provided here with no external dependencies. The
// Source interface abstracts over the two generators so fault injection
// and search code can consume either.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances x by the splitmix64 sequence and returns the next
// output. It is the standard seeding/hash finalizer from Vigna's splitmix64.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes an arbitrary sequence of 64-bit parts into a single
// well-distributed 64-bit value. It is deterministic and order-sensitive.
func Hash64(parts ...uint64) uint64 {
	h := uint64(0x8824a3d79bc1a62b)
	for _, p := range parts {
		h = SplitMix64(h ^ p)
	}
	return h
}

// HashFloat maps Hash64(parts...) to [0,1).
func HashFloat(parts ...uint64) float64 {
	return float64(Hash64(parts...)>>11) / (1 << 53)
}

// Source is the generator interface shared by Rand (xoshiro256**) and
// PCG (pcg64). Consumers that only draw random values — fault
// generators, path searches, trial bodies — should accept a Source so
// they work with both the sequential generators and the per-trial PCG
// streams handed out by the parallel engine. It carries only the
// methods those consumers actually call; both concrete types offer
// more (Perm, Binomial).
type Source interface {
	Uint64() uint64
	Intn(n int) int
	Float64() float64
	Bernoulli(p float64) bool
	Geometric(p float64) int
	Shuffle(n int, swap func(i, j int))
}

var (
	_ Source = (*Rand)(nil)
	_ Source = (*PCG)(nil)
)

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	var r Rand
	x := seed
	for i := range r.s {
		x = SplitMix64(x)
		r.s[i] = x
	}
	// xoshiro256** must not be seeded with all zeros.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

// Split returns a new independent generator derived from r's seed stream
// and the given key, without perturbing r. Use it to give each Monte-Carlo
// trial or subsystem its own stream.
func (r *Rand) Split(key uint64) *Rand {
	return New(Hash64(r.s[0], r.s[1], r.s[2], r.s[3], key))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return intn(r, n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return float64v(r) }

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return bernoulli(r, p) }

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int { return perm(r, n) }

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { shuffle(r, n, swap) }

// Geometric returns a sample of the number of failures before the first
// success with success probability p in (0,1]. Used for fast sparse
// Bernoulli sampling via skip distances.
func (r *Rand) Geometric(p float64) int { return geometric(r, p) }

// bitSource is the raw-bits view the shared distribution helpers draw
// from; both Rand and PCG provide it.
type bitSource interface{ Uint64() uint64 }

func intn(r bitSource, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

func float64v(r bitSource) float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

func bernoulli(r bitSource, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64v(r) < p
}

func perm(r bitSource, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := intn(r, i+1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func shuffle(r bitSource, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := intn(r, i+1)
		swap(i, j)
	}
}

func geometric(r bitSource, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	u := float64v(r)
	// Avoid log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Floor(math.Log(u) / math.Log1p(-p)))
}
