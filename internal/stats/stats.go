// Package stats provides the statistical analysis primitives used by the
// experiment harness: summary statistics, quantiles, integer counters,
// total variation distance from uniform, and least-squares fits used to
// extract scaling exponents from parameter sweeps.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual scalar summaries of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P05    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// String renders a Summary compactly for experiment tables, including
// both tail quantiles Summarize computes (p05 and p99 were silently
// dropped once; TestSummaryStringRendersAllFields pins the full set).
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.3g min=%.4g p05=%.4g med=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.P05, s.Median, s.P95, s.P99, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted (ascending) data
// using linear interpolation. Panics if sorted is empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TVDistanceFromUniform computes the total variation distance between the
// empirical distribution given by counts and the uniform distribution over
// the same support: TV = (1/2) Σ |c_i/total − 1/k|.
// Returns 0 for an empty or all-zero counts slice.
func TVDistanceFromUniform(counts []int) float64 {
	k := len(counts)
	if k == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	u := 1 / float64(k)
	var tv float64
	for _, c := range counts {
		tv += math.Abs(float64(c)/float64(total) - u)
	}
	return tv / 2
}

// FractionInBand returns the fraction of counts that, normalised by total,
// fall inside [lo, hi]. Used to check the Soup Theorem's [1/17n, 3/2n]
// per-destination probability band.
func FractionInBand(counts []int, total int, lo, hi float64) float64 {
	if len(counts) == 0 || total == 0 {
		return 0
	}
	in := 0
	for _, c := range counts {
		p := float64(c) / float64(total)
		if p >= lo && p <= hi {
			in++
		}
	}
	return float64(in) / float64(len(counts))
}

// LinearFit fits y = a + b*x by ordinary least squares and returns
// (intercept a, slope b, r² coefficient of determination).
// Requires len(x) == len(y) >= 2 and non-constant x.
func LinearFit(x, y []float64) (a, b, r2 float64) {
	if len(x) != len(y) {
		panic("stats: LinearFit length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		panic("stats: LinearFit needs at least 2 points")
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: LinearFit with constant x")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return a, b, 1
	}
	var ssRes float64
	for i := range x {
		d := y[i] - (a + b*x[i])
		ssRes += d * d
	}
	return a, b, 1 - ssRes/ssTot
}

// PowerLawExponent fits y = C * x^p on log-log scale and returns (p, r²).
// All x and y must be positive.
func PowerLawExponent(x, y []float64) (p, r2 float64) {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			panic("stats: PowerLawExponent needs positive data")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	_, p, r2 = LinearFit(lx, ly)
	return p, r2
}

// Counter accumulates integer observations keyed by small non-negative ints
// (e.g. per-round latencies). It grows on demand.
type Counter struct {
	counts []int
	total  int
}

// Add records one observation of value v (v >= 0).
func (c *Counter) Add(v int) {
	if v < 0 {
		panic("stats: Counter.Add negative value")
	}
	for v >= len(c.counts) {
		c.counts = append(c.counts, 0)
	}
	c.counts[v]++
	c.total++
}

// Mean returns the mean observed value.
func (c *Counter) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var s int
	for v, n := range c.counts {
		s += v * n
	}
	return float64(s) / float64(c.total)
}

// Quantile returns the smallest value v such that at least fraction q of
// observations are <= v. Returns 0 for an empty counter.
func (c *Counter) Quantile(q float64) int {
	if c.total == 0 {
		return 0
	}
	need := int(math.Ceil(q * float64(c.total)))
	if need < 1 {
		need = 1
	}
	run := 0
	for v, n := range c.counts {
		run += n
		if run >= need {
			return v
		}
	}
	return len(c.counts) - 1
}

// Max returns the largest observed value (0 if empty).
func (c *Counter) Max() int {
	for v := len(c.counts) - 1; v >= 0; v-- {
		if c.counts[v] > 0 {
			return v
		}
	}
	return 0
}
