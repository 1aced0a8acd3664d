package rng

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Split derives a child stream from the current stream state. The parent
// advances; the child is independent of the parent's future output.
func (r *Stream) Split() *Stream {
	return Derive(r.Uint64(), r.Uint64())
}
