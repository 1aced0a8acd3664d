package churn

import (
	"math"
	"testing"
)

func TestRateLawMatchesFormula(t *testing.T) {
	l := RateLaw{C: 4, K: 1.4}
	for _, n := range []int{100, 1000, 10000} {
		want := int(4 * float64(n) / math.Pow(math.Log(float64(n)), 1.4))
		if got := l.PerRound(n, 0); got != want {
			t.Fatalf("n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestRateLawEdgeCases(t *testing.T) {
	l := RateLaw{C: 1000, K: 0.1}
	if got := l.PerRound(10, 0); got > 10 {
		t.Fatalf("rate law exceeded n: %d", got)
	}
	if got := l.PerRound(1, 0); got != 0 {
		t.Fatalf("n=1 should have zero churn, got %d", got)
	}
	if got := (RateLaw{C: -1, K: 1}).PerRound(100, 0); got != 0 {
		t.Fatalf("negative C should clamp to 0, got %d", got)
	}
}

func TestPaperLaw(t *testing.T) {
	l := PaperLaw(4, 0.5)
	if l.K != 1.5 || l.C != 4 {
		t.Fatalf("PaperLaw wrong: %+v", l)
	}
}

func TestFixedAndZeroLaws(t *testing.T) {
	if (FixedLaw{Count: 7}).PerRound(100, 3) != 7 {
		t.Fatal("fixed law wrong")
	}
	if (FixedLaw{Count: 200}).PerRound(100, 0) != 100 {
		t.Fatal("fixed law should clamp to n")
	}
	if (FixedLaw{Count: -5}).PerRound(100, 0) != 0 {
		t.Fatal("fixed law should clamp negatives")
	}
	if (ZeroLaw{}).PerRound(100, 0) != 0 {
		t.Fatal("zero law wrong")
	}
}

func TestBatchDistinctAndInRange(t *testing.T) {
	for _, strat := range []Strategy{Uniform, OldestFirst, YoungestFirst, SweepBurst} {
		a := NewAdversary(200, 42, strat, FixedLaw{Count: 17})
		for round := 0; round < 50; round++ {
			b := a.Batch(round)
			if len(b) != 17 {
				t.Fatalf("%v: batch size %d, want 17", strat, len(b))
			}
			seen := make(map[int]bool)
			for _, s := range b {
				if s < 0 || s >= 200 {
					t.Fatalf("%v: slot %d out of range", strat, s)
				}
				if seen[s] {
					t.Fatalf("%v: duplicate slot %d in batch", strat, s)
				}
				seen[s] = true
			}
		}
	}
}

// overLaw is a misbehaving Law returning more replacements than slots.
type overLaw struct{}

func (overLaw) PerRound(n, _ int) int { return 3 * n }
func (overLaw) String() string        { return "3n/round" }

func TestBatchClampsMisbehavingLaw(t *testing.T) {
	// Law is a public interface; the adversary must bound a law that asks
	// for more replacements than there are slots, keeping batches distinct
	// and in range.
	for _, strat := range []Strategy{Uniform, OldestFirst, YoungestFirst, SweepBurst} {
		a := NewAdversary(20, 7, strat, overLaw{})
		for round := 0; round < 5; round++ {
			b := a.Batch(round)
			if len(b) != 20 {
				t.Fatalf("%v: batch size %d, want 20 (clamped)", strat, len(b))
			}
			seen := make(map[int]bool)
			for _, s := range b {
				if s < 0 || s >= 20 || seen[s] {
					t.Fatalf("%v: bad slot %d in clamped batch %v", strat, s, b)
				}
				seen[s] = true
			}
		}
	}
}

func TestAdversaryDeterministic(t *testing.T) {
	for _, strat := range []Strategy{Uniform, OldestFirst, YoungestFirst, SweepBurst} {
		a := NewAdversary(100, 7, strat, FixedLaw{Count: 9})
		b := NewAdversary(100, 7, strat, FixedLaw{Count: 9})
		for round := 0; round < 30; round++ {
			ba := append([]int(nil), a.Batch(round)...)
			bb := b.Batch(round)
			for i := range ba {
				if ba[i] != bb[i] {
					t.Fatalf("%v: schedules diverge at round %d", strat, round)
				}
			}
		}
	}
}

func TestOldestFirstCyclesThroughAllSlots(t *testing.T) {
	// With count c per round, after n/c rounds every slot must have been
	// replaced exactly once.
	const n, c = 120, 10
	a := NewAdversary(n, 1, OldestFirst, FixedLaw{Count: c})
	seen := make(map[int]int)
	for round := 0; round < n/c; round++ {
		for _, s := range a.Batch(round) {
			seen[s]++
		}
	}
	if len(seen) != n {
		t.Fatalf("oldest-first covered %d slots in one cycle, want %d", len(seen), n)
	}
	for s, k := range seen {
		if k != 1 {
			t.Fatalf("slot %d replaced %d times in one cycle", s, k)
		}
	}
}

func TestYoungestFirstKeepsOldCore(t *testing.T) {
	// Youngest-first keeps re-replacing the same tail; over many rounds
	// the set of replaced slots stays the same c slots.
	const n, c = 100, 8
	a := NewAdversary(n, 2, YoungestFirst, FixedLaw{Count: c})
	first := append([]int(nil), a.Batch(0)...)
	inFirst := make(map[int]bool)
	for _, s := range first {
		inFirst[s] = true
	}
	for round := 1; round < 20; round++ {
		for _, s := range a.Batch(round) {
			if !inFirst[s] {
				t.Fatalf("youngest-first strayed outside initial tail at round %d (slot %d)", round, s)
			}
		}
	}
}

func TestSweepBurstCoversSpace(t *testing.T) {
	const n, c = 64, 10
	a := NewAdversary(n, 3, SweepBurst, FixedLaw{Count: c})
	covered := make(map[int]bool)
	for round := 0; round < (n+c-1)/c; round++ {
		for _, s := range a.Batch(round) {
			covered[s] = true
		}
	}
	if len(covered) != n {
		t.Fatalf("sweep covered %d slots, want all %d", len(covered), n)
	}
}

func TestUniformIsSpreadOut(t *testing.T) {
	const n, c, rounds = 100, 10, 2000
	a := NewAdversary(n, 5, Uniform, FixedLaw{Count: c})
	counts := make([]int, n)
	for round := 0; round < rounds; round++ {
		for _, s := range a.Batch(round) {
			counts[s]++
		}
	}
	want := float64(rounds*c) / n
	for s, k := range counts {
		if math.Abs(float64(k)-want) > 6*math.Sqrt(want) {
			t.Fatalf("slot %d replaced %d times, want about %.0f", s, k, want)
		}
	}
}

func TestZeroChurnBatchEmpty(t *testing.T) {
	a := NewAdversary(100, 1, Uniform, ZeroLaw{})
	if len(a.Batch(0)) != 0 {
		t.Fatal("zero law should yield empty batches")
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []Strategy{Uniform, OldestFirst, YoungestFirst, SweepBurst, Strategy(99)} {
		if s.String() == "" {
			t.Fatal("empty strategy string")
		}
	}
	for _, l := range []Law{RateLaw{C: 4, K: 1.5}, FixedLaw{Count: 3}, ZeroLaw{}} {
		if l.String() == "" {
			t.Fatal("empty law string")
		}
	}
}
