package graph

import (
	"testing"
	"testing/quick"

	"dynp2p/internal/rng"
)

func TestRandomRegularIsRegular(t *testing.T) {
	check := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw)%200 + 3
		d := (int(dRaw)%4 + 1) * 2 // 2,4,6,8
		g := RandomRegular(n, d, rng.New(seed))
		return g.CheckRegular() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegularOddDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd degree did not panic")
		}
	}()
	RandomRegular(10, 3, rng.New(1))
}

func TestRandomRegularConnected(t *testing.T) {
	// Random 8-regular graphs on >= 100 vertices are connected w.h.p.;
	// check several seeds.
	for seed := uint64(0); seed < 10; seed++ {
		g := RandomRegular(500, 8, rng.New(seed))
		if !g.IsConnected() {
			t.Fatalf("seed %d: 8-regular graph on 500 vertices disconnected", seed)
		}
	}
}

func TestRandomRegularExpander(t *testing.T) {
	// Friedman: lambda -> 2*sqrt(d-1)/d ~ 0.66 for d=8. Allow slack.
	r := rng.New(42)
	g := RandomRegular(2000, 8, r)
	lambda := g.SpectralGapEstimate(rng.New(7), 60)
	if lambda > 0.85 {
		t.Fatalf("spectral estimate %v too large for a random 8-regular graph", lambda)
	}
	if lambda < 0.3 {
		t.Fatalf("spectral estimate %v implausibly small", lambda)
	}
}

func TestFillRandomRegularReusesStorage(t *testing.T) {
	g := New(100, 6)
	r := rng.New(3)
	g.FillRandomRegular(r)
	if err := g.CheckRegular(); err != nil {
		t.Fatal(err)
	}
	before := g.Neighbors(0)[0]
	// Refill and confirm validity again (and that it actually changed).
	changed := false
	for i := 0; i < 5 && !changed; i++ {
		g.FillRandomRegular(r)
		if err := g.CheckRegular(); err != nil {
			t.Fatal(err)
		}
		if g.Neighbors(0)[0] != before {
			changed = true
		}
	}
	if !changed {
		t.Fatal("refill never changed the topology")
	}
}

func TestIsBipartiteDetectsEvenCycle(t *testing.T) {
	// A pure even cycle is bipartite.
	n := 8
	g := New(n, 2)
	for i := 0; i < n; i++ {
		g.SetPort(i, 0, int32((i+1)%n))
		g.SetPort(i, 1, int32((i-1+n)%n))
	}
	if !g.IsBipartite() {
		t.Fatal("even cycle reported non-bipartite")
	}
	// An odd cycle is not.
	n = 7
	g = New(n, 2)
	for i := 0; i < n; i++ {
		g.SetPort(i, 0, int32((i+1)%n))
		g.SetPort(i, 1, int32((i-1+n)%n))
	}
	if g.IsBipartite() {
		t.Fatal("odd cycle reported bipartite")
	}
}

func TestIsBipartiteSelfLoop(t *testing.T) {
	g := New(3, 2)
	g.SetPort(0, 0, 0)
	g.SetPort(0, 1, 1)
	g.SetPort(1, 0, 0)
	g.SetPort(1, 1, 2)
	g.SetPort(2, 0, 1)
	g.SetPort(2, 1, 2)
	if g.IsBipartite() {
		t.Fatal("graph with self-loop reported bipartite")
	}
}

func TestIsConnectedDetectsSplit(t *testing.T) {
	// Two disjoint 2-cycles.
	g := New(4, 2)
	g.SetPort(0, 0, 1)
	g.SetPort(0, 1, 1)
	g.SetPort(1, 0, 0)
	g.SetPort(1, 1, 0)
	g.SetPort(2, 0, 3)
	g.SetPort(2, 1, 3)
	g.SetPort(3, 0, 2)
	g.SetPort(3, 1, 2)
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestSpectralGapOfCycleNearOne(t *testing.T) {
	// Long even cycles mix very slowly: lambda = cos(2*pi/n) -> 1.
	n := 256
	g := New(n, 2)
	for i := 0; i < n; i++ {
		g.SetPort(i, 0, int32((i+1)%n))
		g.SetPort(i, 1, int32((i-1+n)%n))
	}
	lambda := g.SpectralGapEstimate(rng.New(1), 200)
	if lambda < 0.95 {
		t.Fatalf("cycle spectral estimate %v, want near 1", lambda)
	}
}

func TestCheckRegularCatchesCorruption(t *testing.T) {
	g := RandomRegular(50, 4, rng.New(8))
	g.SetPort(3, 1, 77) // out of range
	if err := g.CheckRegular(); err == nil {
		t.Fatal("out-of-range port not caught")
	}
	g = RandomRegular(50, 4, rng.New(8))
	g.SetPort(3, 1, g.Neighbor(3, 0)) // double-count a vertex
	if err := g.CheckRegular(); err == nil {
		t.Fatal("reference-count violation not caught")
	}
}

func BenchmarkMicroFillRandomRegular(b *testing.B) {
	g := New(10000, 8)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FillRandomRegular(r)
	}
}

// TestSpectralGapScratchValidation: the scratch variant must reject
// wrong-length vectors rather than silently mis-estimate.
func TestSpectralGapScratchValidation(t *testing.T) {
	g := RandomRegular(64, 4, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("short scratch vectors did not panic")
		}
	}()
	g.SpectralGapEstimateScratch(rng.New(2), 10, make([]float64, 63), make([]float64, 64))
}
