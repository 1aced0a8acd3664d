package simnet

import (
	"slices"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/rng"
)

// edgeModes is every valid edge mode, in declaration order.
var edgeModes = []EdgeMode{EdgesRerandomize, EdgesStatic, EdgesSelfHealing}

// topoEngine builds a churn-free engine whose only moving part is the
// topology.
func topoEngine(n, degree int, mode EdgeMode, seed uint64) *Engine {
	return New(Config{N: n, Degree: degree, EdgeMode: mode, AdversarySeed: seed, ProtocolSeed: seed + 1, Law: churn.ZeroLaw{}})
}

// neighborsOf0 returns a copy of slot 0's adjacency after each of rounds
// rounds.
func neighborsOf0(e *Engine, rounds int) [][]int32 {
	var out [][]int32
	for i := 0; i < rounds; i++ {
		e.RunRound(NopHandler{})
		out = append(out, slices.Clone(e.Graph().Neighbors(0)))
	}
	return out
}

func TestEveryRoundIsRegular(t *testing.T) {
	for _, mode := range edgeModes {
		e := topoEngine(200, 8, mode, 11)
		for round := 0; round <= 20; round++ {
			e.RunRound(NopHandler{})
			if err := e.Graph().CheckRegular(); err != nil {
				t.Fatalf("%v round %d: %v", mode, round, err)
			}
		}
	}
}

// oracleStaysOut checks that the oracle never touches an edge after round 0.
func oracleStaysOut(t *testing.T, mode EdgeMode, seed uint64) {
	t.Helper()
	e := topoEngine(100, 6, mode, seed)
	snapshot := slices.Clone(e.Graph().Neighbors(0))
	for round, nb := range neighborsOf0(e, 10) {
		if !slices.Equal(nb, snapshot) {
			t.Fatalf("%v: the oracle rewired an edge in round %d", mode, round)
		}
	}
	if err := e.Graph().CheckRegular(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticNeverChanges(t *testing.T) { oracleStaysOut(t, EdgesStatic, 3) }

// TestSelfHealingStepIsInert: under EdgesSelfHealing the oracle must never
// touch an edge after round 0 — the overlay owns them.
func TestSelfHealingStepIsInert(t *testing.T) { oracleStaysOut(t, EdgesSelfHealing, 23) }

func TestRerandomizeChanges(t *testing.T) {
	e := topoEngine(300, 6, EdgesRerandomize, 4)
	before := slices.Clone(e.Graph().Neighbors(0))
	if nb := neighborsOf0(e, 2)[1]; slices.Equal(nb, before) {
		t.Fatal("rerandomize did not change topology (astronomically unlikely)")
	}
}

func TestDeterminism(t *testing.T) {
	a := topoEngine(150, 4, EdgesRerandomize, 9)
	b := topoEngine(150, 4, EdgesRerandomize, 9)
	for round := 0; round < 5; round++ {
		a.RunRound(NopHandler{})
		b.RunRound(NopHandler{})
		for v := 0; v < 150; v++ {
			if !slices.Equal(a.Graph().Neighbors(v), b.Graph().Neighbors(v)) {
				t.Fatal("same seed produced different topologies")
			}
		}
	}
}

func TestExpansionMaintained(t *testing.T) {
	e := topoEngine(1024, 8, EdgesRerandomize, 13)
	probe := rng.New(1)
	for round := 0; round < 5; round++ {
		e.RunRound(NopHandler{})
		if lambda := e.Graph().SpectralGapEstimate(probe, 40); lambda > 0.9 {
			t.Fatalf("round %d: lambda estimate %v — not an expander", round, lambda)
		}
		if !e.Graph().IsConnected() {
			t.Fatalf("round %d: topology disconnected", round)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("tiny n", func() { topoEngine(2, 2, EdgesStatic, 1) })
	mustPanic("odd degree", func() { topoEngine(10, 3, EdgesStatic, 1) })
}

func TestModeStrings(t *testing.T) {
	for _, m := range append(edgeModes, EdgeMode(42)) {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}

// TestParseEdgeModeRoundTrip is the exhaustive String ⇄ ParseEdgeMode
// round trip over every mode: a newly added mode that misses either
// direction fails here.
func TestParseEdgeModeRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range edgeModes {
		s := m.String()
		if seen[s] {
			t.Fatalf("duplicate mode string %q", s)
		}
		seen[s] = true
		if got, err := ParseEdgeMode(s); err != nil || got != m {
			t.Fatalf("ParseEdgeMode(%q) = %v, %v; want %v", s, got, err, m)
		}
	}
	if m, err := ParseEdgeMode("  Self-Healing "); err != nil || m != EdgesSelfHealing {
		t.Fatalf("case/space-insensitive parse failed: %v, %v", m, err)
	}
	if _, err := ParseEdgeMode("mesh"); err == nil {
		t.Fatal("unknown mode did not error")
	}
	if _, err := ParseEdgeMode(EdgeMode(42).String()); err == nil {
		t.Fatal("invalid-mode String() should not parse back")
	}
}
