package expander

import (
	"testing"

	"dynp2p/internal/rng"
)

func TestEveryRoundIsRegular(t *testing.T) {
	for _, mode := range Modes() {
		d := New(Config{N: 200, Degree: 8, Mode: mode}, 11)
		for round := 1; round <= 20; round++ {
			d.Step(round)
			if err := d.Graph().CheckRegular(); err != nil {
				t.Fatalf("%v round %d: %v", mode, round, err)
			}
		}
	}
}

func TestStaticNeverChanges(t *testing.T) {
	d := New(Config{N: 100, Degree: 6, Mode: Static}, 3)
	snapshot := append([]int32(nil), d.Graph().Neighbors(0)...)
	for round := 1; round <= 10; round++ {
		d.Step(round)
		for i, w := range d.Graph().Neighbors(0) {
			if snapshot[i] != w {
				t.Fatal("static topology changed")
			}
		}
	}
}

func TestRerandomizeChanges(t *testing.T) {
	d := New(Config{N: 300, Degree: 6, Mode: Rerandomize}, 4)
	before := append([]int32(nil), d.Graph().Neighbors(0)...)
	d.Step(1)
	same := true
	for i, w := range d.Graph().Neighbors(0) {
		if before[i] != w {
			same = false
		}
	}
	if same {
		t.Fatal("rerandomize did not change topology (astronomically unlikely)")
	}
}

func TestDeterminism(t *testing.T) {
	a := New(Config{N: 150, Degree: 4, Mode: Rerandomize}, 9)
	b := New(Config{N: 150, Degree: 4, Mode: Rerandomize}, 9)
	for round := 1; round <= 5; round++ {
		a.Step(round)
		b.Step(round)
		for v := 0; v < 150; v++ {
			na, nb := a.Graph().Neighbors(v), b.Graph().Neighbors(v)
			for i := range na {
				if na[i] != nb[i] {
					t.Fatal("same seed produced different topologies")
				}
			}
		}
	}
}

func TestExpansionMaintained(t *testing.T) {
	d := New(Config{N: 1024, Degree: 8, Mode: Rerandomize}, 13)
	probe := rng.New(1)
	for round := 1; round <= 5; round++ {
		d.Step(round)
		lambda := d.Graph().SpectralGapEstimate(probe, 40)
		if lambda > 0.9 {
			t.Fatalf("round %d: lambda estimate %v — not an expander", round, lambda)
		}
		if !d.Graph().IsConnected() {
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
	mustPanic("tiny n", func() { New(Config{N: 2, Degree: 2, Mode: Static}, 1) })
	mustPanic("odd degree", func() { New(Config{N: 10, Degree: 3, Mode: Static}, 1) })
}

func TestModeStrings(t *testing.T) {
	for _, m := range append(Modes(), EdgeMode(42)) {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}

// TestParseEdgeModeRoundTrip is the exhaustive String ⇄ ParseEdgeMode
// round trip over every mode Modes() declares: a newly added mode that
// misses either direction fails here.
func TestParseEdgeModeRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Modes() {
		s := m.String()
		if seen[s] {
			t.Fatalf("duplicate mode string %q", s)
		}
		seen[s] = true
		got, err := ParseEdgeMode(s)
		if err != nil {
			t.Fatalf("ParseEdgeMode(%q): %v", s, err)
		}
		if got != m {
			t.Fatalf("ParseEdgeMode(%q) = %v, want %v", s, got, m)
		}
	}
	if m, err := ParseEdgeMode("  Self-Healing "); err != nil || m != SelfHealing {
		t.Fatalf("case/space-insensitive parse failed: %v, %v", m, err)
	}
	if _, err := ParseEdgeMode("mesh"); err == nil {
		t.Fatal("unknown mode did not error")
	}
	if _, err := ParseEdgeMode(EdgeMode(42).String()); err == nil {
		t.Fatal("invalid-mode String() should not parse back")
	}
}

// TestSelfHealingStepIsInert: under SelfHealing the oracle must never
// touch an edge after round 0 — the overlay owns them.
func TestSelfHealingStepIsInert(t *testing.T) {
	d := New(Config{N: 100, Degree: 6, Mode: SelfHealing}, 23)
	snapshot := append([]int32(nil), d.Graph().Neighbors(0)...)
	for round := 1; round <= 10; round++ {
		d.Step(round)
		for i, w := range d.Graph().Neighbors(0) {
			if snapshot[i] != w {
				t.Fatal("oracle rewired an edge in self-healing mode")
			}
		}
	}
	if err := d.Graph().CheckRegular(); err != nil {
		t.Fatal(err)
	}
}
