package shard

import (
	"sync/atomic"
	"testing"
)

// grids under test: the minimum, the default, and the maximum Pick can
// return.
func testGrids() []Grid {
	return []Grid{New(MinCount), New(DefaultCount), New(MaxCount)}
}

func TestOfBoundsConsistency(t *testing.T) {
	for _, g := range testGrids() {
		for _, n := range []int{3, 10, 63, 64, 65, 1000, 4096, 65536} {
			covered := 0
			for sh := 0; sh < g.Count(); sh++ {
				lo, hi := g.Bounds(sh, n)
				for s := lo; s < hi; s++ {
					if got := g.Of(s, n); got != sh {
						t.Fatalf("count=%d n=%d: Of(%d) = %d but Bounds(%d) = [%d,%d)",
							g.Count(), n, s, got, sh, lo, hi)
					}
				}
				covered += hi - lo
			}
			if covered != n {
				t.Fatalf("count=%d n=%d: bounds cover %d slots", g.Count(), n, covered)
			}
		}
	}
}

func TestLocTableMatchesOfAndBounds(t *testing.T) {
	for _, g := range testGrids() {
		for _, n := range []int{3, 10, 63, 64, 65, 1000, 4096, 65536} {
			tab := g.LocTable(n)
			if len(tab) != n {
				t.Fatalf("n=%d: table length %d", n, len(tab))
			}
			for s := 0; s < n; s++ {
				sh, local := Loc(tab[s])
				if sh != g.Of(s, n) {
					t.Fatalf("count=%d n=%d slot %d: table shard %d, Of %d",
						g.Count(), n, s, sh, g.Of(s, n))
				}
				lo, _ := g.Bounds(sh, n)
				if local != s-lo {
					t.Fatalf("count=%d n=%d slot %d: table local %d, want %d",
						g.Count(), n, s, local, s-lo)
				}
			}
		}
	}
}

func TestPick(t *testing.T) {
	cases := []struct {
		n, procs, want int
	}{
		{128, 1, MinCount},     // tiny nets floor at MinCount
		{4096, 1, MinCount},    // 4 shards of slots, floored
		{4096, 8, 32},          // 4·procs floor dominates
		{65536, 1, 64},         // the historical benchmark grid
		{65536, 4, 64},         // unchanged at the core counts we sweep
		{262144, 1, 256},       // 2^18 slots → MaxCount
		{1 << 20, 1, MaxCount}, // million-node runs cap out
		{1 << 20, 64, MaxCount},
		{8, 0, MinCount}, // procs <= 0 treated as 1
	}
	for _, c := range cases {
		if got := Pick(c.n, c.procs).Count(); got != c.want {
			t.Errorf("Pick(%d, %d) = %d, want %d", c.n, c.procs, got, c.want)
		}
	}
	// Every pickable count must be a valid New argument.
	for n := 8; n <= 1<<22; n *= 2 {
		for procs := 1; procs <= 64; procs *= 2 {
			g := Pick(n, procs)
			New(g.Count()) // panics if invalid
			if g.Count() < MinCount || g.Count() > MaxCount {
				t.Fatalf("Pick(%d, %d) = %d outside [MinCount, MaxCount]", n, procs, g.Count())
			}
		}
	}
}

func TestOffsets(t *testing.T) {
	counts := []int32{3, 0, 2, 5, 0}
	off := make([]int32, len(counts)+1)
	if total := Offsets(counts, off); total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	want := []int32{0, 3, 3, 5, 10, 10}
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("off = %v, want %v", off, want)
		}
	}
	// Empty input: single zero offset.
	var empty [1]int32
	if total := Offsets(nil, empty[:]); total != 0 || empty[0] != 0 {
		t.Fatalf("empty Offsets: total=%d off=%v", total, empty)
	}
}

func TestRunVisitsEveryShardOnce(t *testing.T) {
	for _, g := range testGrids() {
		for _, w := range []int{0, 1, 3, g.Count(), g.Count() + 10} {
			visits := make([]atomic.Int32, g.Count())
			g.Run(w, func(sh int) { visits[sh].Add(1) })
			for sh := range visits {
				if got := visits[sh].Load(); got != 1 {
					t.Fatalf("count=%d workers=%d: shard %d visited %d times",
						g.Count(), w, sh, got)
				}
			}
		}
	}
}

// TestBarrier drives a 4-party barrier through many generations: the
// last-arriver callback must run exactly once per generation, strictly
// between the phases it separates.
func TestBarrier(t *testing.T) {
	const parties, gens = 4, 200
	b := NewBarrier(parties)
	var phase atomic.Int32
	var mismatches atomic.Int32
	done := make(chan struct{}, parties)
	for p := 0; p < parties; p++ {
		go func() {
			for g := 0; g < gens; g++ {
				// Everyone must observe phase == g before the barrier and
				// phase == g+1 after it: the callback is the only writer.
				if phase.Load() != int32(g) {
					mismatches.Add(1)
				}
				b.Wait(func() { phase.Add(1) })
				if phase.Load() != int32(g+1) {
					mismatches.Add(1)
				}
			}
			done <- struct{}{}
		}()
	}
	for p := 0; p < parties; p++ {
		<-done
	}
	if got := phase.Load(); got != gens {
		t.Fatalf("callback ran %d times, want %d", got, gens)
	}
	if m := mismatches.Load(); m != 0 {
		t.Fatalf("%d phase-ordering violations", m)
	}
}
