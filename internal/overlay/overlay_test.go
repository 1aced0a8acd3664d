package overlay

import (
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// rig is a minimal engine+soup+overlay stack for hook-level tests.
type rig struct {
	e    *simnet.Engine
	soup *walks.Soup
	ov   *Overlay
}

func newRig(t *testing.T, n int, mode simnet.EdgeMode, law churn.Law, strat churn.Strategy, cfg Config) *rig {
	t.Helper()
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: mode,
		AdversarySeed: 11, ProtocolSeed: 12,
		Strategy: strat, Law: law,
	})
	p := walks.DefaultParams(n)
	soup := walks.NewSoup(e, p, 0)
	e.AddHook(soup)
	ov := New(e, soup, cfg)
	e.AddHook(ov)
	return &rig{e: e, soup: soup, ov: ov}
}

func (r *rig) run(t *testing.T, rounds int, checkEvery int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		r.e.RunRound(simnet.NopHandler{})
		if checkEvery > 0 && r.e.Round()%checkEvery == 0 {
			if err := r.ov.CheckInvariants(r.e.Graph()); err != nil {
				t.Fatalf("round %d: %v", r.e.Round(), err)
			}
			if err := r.e.Graph().CheckRegular(); err != nil {
				t.Fatalf("round %d: %v", r.e.Round(), err)
			}
		}
	}
}

// TestRepairPreservesRegularity drives heavy churn through the repair
// path and checks, every round, that the multigraph stays d-regular and
// the reciprocal-port table stays a consistent involution.
func TestRepairPreservesRegularity(t *testing.T) {
	r := newRig(t, 512, simnet.EdgesSelfHealing, churn.FixedLaw{Count: 24}, churn.Uniform, Config{})
	r.run(t, 80, 1)
	m := r.ov.Metrics()
	if m.PortsSevered == 0 || m.Splices+m.DirectPairs == 0 {
		t.Fatalf("no repairs ran: %+v", m)
	}
	if 2*(m.Splices+m.DirectPairs) != m.PortsSevered {
		t.Fatalf("severed ports %d not fully healed (%d splices, %d direct)",
			m.PortsSevered, m.Splices, m.DirectPairs)
	}
	if m.Splices == 0 {
		t.Fatal("expected at least some sample-driven splices after soup mixing")
	}
	if r.e.Graph().IsBipartite() {
		t.Fatal("repaired topology became bipartite")
	}
	if !r.e.Graph().IsConnected() {
		t.Fatal("repaired topology disconnected")
	}
}

// TestRepairUnderEveryStrategy exercises correlated churn shapes —
// bursts, sweeps over contiguous slot blocks, age-targeted attacks — that
// make many incident edges dangle at once (including churned-churned
// edges, the double-sever path).
func TestRepairUnderEveryStrategy(t *testing.T) {
	laws := []churn.Law{
		churn.BurstLaw{Period: 10, Width: 2, Count: 64},
		churn.FixedLaw{Count: 48},
	}
	strategies := []churn.Strategy{churn.Uniform, churn.OldestFirst, churn.YoungestFirst, churn.SweepBurst}
	for _, law := range laws {
		for _, strat := range strategies {
			r := newRig(t, 256, simnet.EdgesSelfHealing, law, strat, Config{})
			r.run(t, 60, 1)
			if r.e.Graph().IsBipartite() {
				t.Fatalf("%v/%v: bipartite after repairs", law, strat)
			}
		}
	}
}

// TestRepairSurvivesColdStart churns hard from round 1, before any walk
// has completed: every heal must fall back to direct pairing without
// violating regularity, and splices must take over once samples exist.
func TestRepairSurvivesColdStart(t *testing.T) {
	r := newRig(t, 256, simnet.EdgesSelfHealing, churn.FixedLaw{Count: 32}, churn.Uniform, Config{})
	walkLen := r.soup.Params().WalkLength
	r.run(t, walkLen-2, 1)
	m := r.ov.Metrics()
	if m.Splices != 0 {
		t.Fatalf("splices before any walk completed: %+v", m)
	}
	if m.DirectPairs == 0 {
		t.Fatal("no direct-pair fallbacks during cold start")
	}
	r.run(t, 40, 1)
	if m = r.ov.Metrics(); m.Splices == 0 {
		t.Fatal("no splices after the soup warmed up")
	}
}

// TestSelfHealingDeterminism: same seeds, same run — adjacency and
// metrics must match exactly.
func TestSelfHealingDeterminism(t *testing.T) {
	final := func() ([]int32, Metrics) {
		r := newRig(t, 256, simnet.EdgesSelfHealing, churn.FixedLaw{Count: 16}, churn.Uniform,
			Config{SpectralEvery: 7})
		r.run(t, 50, 0)
		adj := append([]int32(nil), r.e.Graph().Adjacency()...)
		return adj, r.ov.Metrics()
	}
	adjA, mA := final()
	adjB, mB := final()
	if mA != mB {
		t.Fatalf("metrics differ:\n%+v\n%+v", mA, mB)
	}
	for i := range adjA {
		if adjA[i] != adjB[i] {
			t.Fatalf("adjacency differs at port %d", i)
		}
	}
}

// TestGuardFixesBipartite hand-builds a bipartite topology (an even
// cycle on ports 0/1 plus matched parallel edges elsewhere) and checks
// the guard detects it and restores an odd cycle without breaking
// regularity or the port table.
func TestGuardFixesBipartite(t *testing.T) {
	r := newRig(t, 64, simnet.EdgesSelfHealing, churn.ZeroLaw{}, churn.Uniform, Config{})
	g := r.e.Graph()
	n, d := g.N(), g.Degree()
	// Even ring on ports 0/1; ports 2k/2k+1 pair v with v^1 (even-side
	// partner), keeping everything bipartite with parts (even, odd).
	for v := 0; v < n; v++ {
		g.SetPort(v, 0, int32((v+1)%n))
		g.SetPort(v, 1, int32((v-1+n)%n))
		for k := 1; k < d/2; k++ {
			g.SetPort(v, 2*k, int32(v^1))
			g.SetPort(v, 2*k+1, int32(v^1))
		}
	}
	r.ov.buildCoPorts(g)
	if !g.IsBipartite() {
		t.Fatal("test graph should be bipartite")
	}
	checks, fixes := r.ov.m.GuardChecks, r.ov.m.GuardFixes
	r.ov.guard(g)
	if r.ov.m.GuardChecks != checks+1 || r.ov.m.GuardFixes != fixes+1 {
		t.Fatalf("guard did not fix: %+v", r.ov.Metrics())
	}
	if g.IsBipartite() {
		t.Fatal("graph still bipartite after guard fix")
	}
	if err := g.CheckRegular(); err != nil {
		t.Fatal(err)
	}
	if err := r.ov.CheckInvariants(g); err != nil {
		t.Fatal(err)
	}
}

// TestSpectralTelemetry checks the measurement cadence, bounds, and that
// telemetry works under oracle modes too (it is mode-independent), where
// the overlay repairs nothing and never builds its port table.
func TestSpectralTelemetry(t *testing.T) {
	for _, mode := range []simnet.EdgeMode{simnet.EdgesSelfHealing, simnet.EdgesRerandomize} {
		r := newRig(t, 256, mode, churn.FixedLaw{Count: 8}, churn.Uniform,
			Config{SpectralEvery: 3})
		r.run(t, 31, 0)
		m := r.ov.Metrics()
		// Rounds 0, 3, ..., 30 → 11 measurements.
		if m.SpectralRounds != 11 {
			t.Fatalf("%v: got %d spectral rounds, want 11", mode, m.SpectralRounds)
		}
		if m.Lambda <= 0 || m.Lambda >= 1 || m.LambdaMax >= 1 {
			t.Fatalf("%v: implausible lambda: %+v", mode, m)
		}
		if m.LambdaRound != 30 || m.LambdaMaxRound < 0 {
			t.Fatalf("%v: bad measurement rounds: %+v", mode, m)
		}
		if m.LambdaMax > 0.9 {
			t.Fatalf("%v: not an expander: λmax=%v", mode, m.LambdaMax)
		}
		if mode != simnet.EdgesSelfHealing && (m.PortsSevered != 0 || r.ov.co != nil) {
			t.Fatalf("%v: overlay repaired under an oracle mode: %+v", mode, m)
		}
	}
}

// TestSpectralScratchMatchesAllocating pins the scratch refactor: same
// stream, same estimate as the allocating wrapper.
func TestSpectralScratchMatchesAllocating(t *testing.T) {
	r := newRig(t, 128, simnet.EdgesStatic, churn.ZeroLaw{}, churn.Uniform, Config{})
	g := r.e.Graph()
	a := g.SpectralGapEstimate(rng.New(9), 40)
	x, y := make([]float64, g.N()), make([]float64, g.N())
	b := g.SpectralGapEstimateScratch(rng.New(9), 40, x, y)
	if a != b {
		t.Fatalf("scratch estimate %v != allocating estimate %v", b, a)
	}
}
