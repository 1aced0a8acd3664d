package shard

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
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

// TestRunsPlaceStably reuses one store for three placements, the second
// growing its buffer and the third over fewer slots: each slot's Run must
// be exactly its items in placement order. A fresh store over no slots
// (an empty shard) places nothing.
func TestRunsPlaceStably(t *testing.T) {
	type item struct{ slot, seq int }
	var empty Runs[item]
	empty.Reset(0)
	empty.Layout()
	var r Runs[item]
	for _, tc := range []struct{ slots, items int }{{5, 10}, {5, 40}, {3, 7}} {
		r.Reset(tc.slots)
		in := make([]item, tc.items)
		for i := range in {
			in[i] = item{slot: (i*7 + tc.items) % tc.slots, seq: i}
			r.Count(in[i].slot)
		}
		r.Layout()
		for i := range in {
			r.Place(in[i].slot, &in[i])
		}
		for l := range tc.slots {
			var want []item
			for _, it := range in {
				if it.slot == l {
					want = append(want, it)
				}
			}
			if got := r.Run(l); !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("%d slots, %d items: Run(%d) = %v (cap %d), want %v", tc.slots, tc.items, l, got, cap(got), want)
			}
		}
		if r.Cap() < tc.items {
			t.Fatalf("%d items in a buffer of %d", tc.items, r.Cap())
		}
	}
}

// TestCarveKeepsBuffersApart fills carved buffers past their room, in
// interleaved order: each must hold exactly what was appended to it, so a
// full buffer moves out instead of writing into its neighbour's room.
func TestCarveKeepsBuffersApart(t *testing.T) {
	const n, each = 5, 4
	bufs := Carve[int](n, each)
	for i, b := range bufs {
		if len(b) != 0 || cap(b) != each {
			t.Fatalf("buffer %d: len %d cap %d, want 0 and %d", i, len(b), cap(b), each)
		}
	}
	want := make([][]int, n)
	for v := range 3 * n * each {
		i := v * 3 % n
		if i%2 == 0 && len(bufs[i]) == each {
			continue // the even buffers stay within their room
		}
		bufs[i] = append(bufs[i], v)
		want[i] = append(want[i], v)
	}
	for i := range bufs {
		if !slices.Equal(bufs[i], want[i]) {
			t.Fatalf("buffer %d holds %v, want %v", i, bufs[i], want[i])
		}
	}
}

// TestCrewRunsEveryIndexOnce drives crews of several sizes through many
// back-to-back phases of several sizes: every index of every phase must
// run exactly once, and Do must not return before all have. Each index
// spins a little, so helpers join phases the caller has not finished.
func TestCrewRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		c := NewCrew(workers)
		if c.Workers() != workers {
			t.Fatalf("NewCrew(%d).Workers() = %d", workers, c.Workers())
		}
		for phase := 0; phase < 200; phase++ {
			for _, count := range []int{0, 1, 2, 16, 300} {
				visits := make([]atomic.Int32, count)
				sink := make([]uint64, count)
				c.Do(count, func(i int) {
					x := uint64(i)
					for j := 0; j < 500; j++ {
						x = x*6364136223846793005 + 1
					}
					sink[i] = x
					visits[i].Add(1)
				})
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("workers=%d phase %d count=%d: index %d ran %d times",
							workers, phase, count, i, got)
					}
				}
			}
		}
	}
}

// TestCrewRunsPhasesInParallel: in a phase of Workers() indices, each of
// which waits until all have started, every worker must take one — the
// helpers join a phase the caller cannot finish alone.
func TestCrewRunsPhasesInParallel(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		c := NewCrew(workers)
		for phase := 0; phase < 20; phase++ {
			var started atomic.Int32
			var stuck atomic.Bool
			c.Do(workers, func(int) {
				started.Add(1)
				for deadline := time.Now().Add(10 * time.Second); started.Load() < int32(workers); {
					if time.Now().After(deadline) {
						stuck.Store(true)
						return
					}
					time.Sleep(10 * time.Microsecond)
				}
			})
			if stuck.Load() {
				t.Fatalf("workers=%d phase %d: only %d of %d indices ever ran at once",
					workers, phase, started.Load(), workers)
			}
		}
	}
}

// TestCrewHelpersExitWhenDropped: a crew nothing references any more is
// finalized, and its helpers — parked or polling — exit.
func TestCrewHelpersExitWhenDropped(t *testing.T) {
	base := runtime.NumGoroutine()
	crews := make([]*Crew, 4)
	for i := range crews {
		crews[i] = NewCrew(4)
		crews[i].Do(64, func(int) {})
	}
	if got := runtime.NumGoroutine(); got != base+12 {
		t.Fatalf("%d goroutines with four live crews, want %d", got, base+12)
	}
	runtime.KeepAlive(crews)
	for try := 0; runtime.NumGoroutine() > base; try++ {
		if try == 500 {
			t.Fatalf("%d goroutines after the crews were dropped, want %d", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
