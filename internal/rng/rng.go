// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator.
//
// Reproducibility is a core requirement of the reproduction (see DESIGN.md
// §5): a whole simulation must be a pure function of two seeds — one for the
// oblivious adversary and one for the protocol — even though node handlers
// run in parallel. To that end every logical actor (a node, the adversary,
// an experiment) draws from its own Stream derived from (seed, id) with
// SplitMix64, so the schedule of goroutines can never change the numbers an
// actor sees.
//
// The core generator is xoshiro256**, which is small, fast, and has
// excellent statistical quality; SplitMix64 is the recommended seeding
// function for it. Both are public-domain algorithms (Blackman & Vigna).
package rng

import "math/bits"

// splitMix64 advances the SplitMix64 state and returns the next value.
// It is used only for seeding and stream derivation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic random number stream. The zero value is not
// valid; use New or Derive. Stream is not safe for concurrent use; give
// each goroutine its own Stream.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// New returns a Stream seeded from seed.
func New(seed uint64) *Stream {
	r := &Stream{}
	r.Reseed(seed)
	return r
}

// Derive returns an independent Stream identified by (seed, id). Distinct
// ids yield statistically independent streams; the same pair always yields
// the same stream. This is the mechanism that makes parallel simulation
// deterministic.
func Derive(seed, id uint64) *Stream {
	r := &Stream{}
	r.ReseedDerived(seed, id)
	return r
}

// ReseedDerived reinitialises r in place to the exact stream Derive(seed,
// id) would return, without allocating. The simulation engine keeps one
// Stream per slot and reseeds it in place when churn installs a new
// occupant, so heavy-churn rounds stay allocation-free.
func (r *Stream) ReseedDerived(seed, id uint64) {
	// Mix id into the seed with one splitmix step so that (seed, id) and
	// (seed, id+1) land far apart in seed space.
	st := seed
	_ = splitMix64(&st)
	st ^= 0x9e3779b97f4a7c15 * (id + 0x632be59bd9b4e019)
	r.Reseed(st)
}

// Reseed reinitialises the stream from seed.
func (r *Stream) Reseed(seed uint64) {
	st := seed
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	r.s2 = splitMix64(&st)
	r.s3 = splitMix64(&st)
	// xoshiro must not be seeded with all zeros; splitmix cannot produce
	// four zero outputs from any seed, but keep a guard for clarity.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire: sample 128-bit product, reject the biased low region.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo < n {
			// threshold = -n mod n
			thresh := (-n) % n
			if lo < thresh {
				continue
			}
		}
		return hi
	}
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Stream) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fill fills b with random bytes.
func (r *Stream) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
