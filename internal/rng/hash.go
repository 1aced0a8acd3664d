package rng

// This file provides stateless deterministic mixing primitives. They exist
// for decision points that must be a pure function of *what* is being
// decided rather than *when* the decision is reached — e.g. the simnet
// fault model must decide each message's fate identically no matter how
// messages are sharded across workers, so it hashes the message identity
// instead of consuming a sequential stream.

// Remix applies one SplitMix64 finalisation step to x. Iterating Remix
// yields a cheap stateless sequence of statistically independent values:
// x, Remix(x), Remix(Remix(x)), ...
func Remix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash mixes vals into seed and returns 64 uniform bits. The result is a
// pure function of (seed, vals); distinct tuples yield independent values.
func Hash(seed uint64, vals ...uint64) uint64 {
	h := HashInit(seed)
	for _, v := range vals {
		h = HashMix(h, v)
	}
	return h
}

// HashInit and HashMix are Hash unrolled for loops that hash many tuples
// sharing a prefix: Hash(seed, a, b) == HashMix(HashMix(HashInit(seed), a), b),
// so the prefix state is computed once and each tuple pays one Remix.
func HashInit(seed uint64) uint64 { return Remix(seed ^ 0x632be59bd9b4e019) }

// HashMix folds one more value into a HashInit/HashMix state.
func HashMix(h, v uint64) uint64 { return Remix(h ^ v*0x9e3779b97f4a7c15) }

// Unit maps 64 random bits to a uniform float64 in [0, 1), using the same
// top-53-bit construction as Stream.Float64.
func Unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}
