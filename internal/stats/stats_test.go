package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dynp2p/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEq(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	data := []float64{10, 20, 30, 40}
	if q := Quantile(data, 0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(data, 1); q != 40 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(data, 0.5); !almostEq(q, 25, 1e-12) {
		t.Fatalf("q0.5 = %v, want 25", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		r := rng.New(seed)
		data := make([]float64, n)
		for i := range data {
			data[i] = r.Float64() * 100
		}
		sort.Float64s(data)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(data, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTVDistanceFromUniform(t *testing.T) {
	if tv := TVDistanceFromUniform([]int{25, 25, 25, 25}); tv != 0 {
		t.Fatalf("uniform TV = %v, want 0", tv)
	}
	// All mass on one outcome of k: TV = 1 - 1/k.
	if tv := TVDistanceFromUniform([]int{100, 0, 0, 0}); !almostEq(tv, 0.75, 1e-12) {
		t.Fatalf("point-mass TV = %v, want 0.75", tv)
	}
	if tv := TVDistanceFromUniform(nil); tv != 0 {
		t.Fatal("empty TV should be 0")
	}
}

func TestFractionInBand(t *testing.T) {
	counts := []int{1, 2, 3, 4} // probs .1 .2 .3 .4
	got := FractionInBand(counts, 10, 0.15, 0.35)
	if !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("FractionInBand = %v, want 0.5", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3 + 2*v
	}
	a, b, r2 := LinearFit(x, y)
	if !almostEq(a, 3, 1e-9) || !almostEq(b, 2, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Fatalf("fit = (%v,%v,%v), want (3,2,1)", a, b, r2)
	}
}

func TestPowerLawExponent(t *testing.T) {
	// y = 7 x^0.5
	x := []float64{4, 16, 64, 256, 1024}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 7 * math.Sqrt(v)
	}
	p, r2 := PowerLawExponent(x, y)
	if !almostEq(p, 0.5, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Fatalf("exponent = %v r2 = %v, want 0.5, 1", p, r2)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	for _, v := range []int{3, 1, 4, 1, 5, 9, 2, 6} {
		c.Add(v)
	}
	if c.Total() != 8 {
		t.Fatalf("total = %d", c.Total())
	}
	if !almostEq(c.Mean(), 31.0/8, 1e-12) {
		t.Fatalf("mean = %v", c.Mean())
	}
	if c.Max() != 9 {
		t.Fatalf("max = %d", c.Max())
	}
	if c.Quantile(0.5) != 3 {
		t.Fatalf("median = %d, want 3", c.Quantile(0.5))
	}
	if c.Quantile(1.0) != 9 {
		t.Fatalf("q1.0 = %d, want 9", c.Quantile(1.0))
	}
}

func TestCounterEmptyAndNegative(t *testing.T) {
	var c Counter
	if c.Mean() != 0 || c.Max() != 0 || c.Quantile(0.5) != 0 {
		t.Fatal("empty counter should report zeros")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

func TestSummaryStringStable(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.String() == "" {
		t.Fatal("String should not be empty")
	}
}

// TestSummaryStringRendersAllFields pins the rendered field set:
// String once silently dropped the computed P05/P99 tail quantiles, so
// experiment tables showed no tails. Every Summarize output must appear,
// with the value Summarize computed for it.
func TestSummaryStringRendersAllFields(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // quantiles land exactly on integers
	}
	s := Summarize(xs)
	got := s.String()
	want := "n=101 mean=50 std=29.3 min=0 p05=5 med=50 p95=95 p99=99 max=100"
	if got != want {
		t.Fatalf("Summary.String() = %q, want %q", got, want)
	}
	for _, field := range []string{"n=", "mean=", "std=", "min=", "p05=", "med=", "p95=", "p99=", "max="} {
		if !strings.Contains(got, field) {
			t.Fatalf("Summary.String() missing %q: %q", field, got)
		}
	}
}

func TestLinearFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("constant x did not panic")
		}
	}()
	LinearFit([]float64{1, 1}, []float64{2, 3})
}
