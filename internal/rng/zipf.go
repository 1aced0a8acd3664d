package rng

import "math"

// Zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s,
// the standard model for skewed key popularity in storage workloads
// (a few hot items, a long tail). s = 0 degenerates to uniform.
//
// The sampler precomputes the CDF once and draws by binary search, so Next
// is O(log n) with no floating-point accumulation at sample time; a Zipf
// over the same (n, s) always maps the same uniform variate to the same
// rank, which keeps workloads deterministic in the driving Stream.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s >= 0. Panics if
// n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	if s < 0 {
		panic("rng: NewZipf with s < 0")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against rounding leaving the last bucket short
	return &Zipf{cdf: cdf}
}

// Next draws a rank in [0, n) using r.
func (z *Zipf) Next(r *Stream) int {
	u := r.Float64()
	// Binary search for the first rank whose CDF exceeds u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
