package shard

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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

// runItem is a Runs test item: its slot and its place in placement order.
type runItem struct{ slot, seq int }

// placeRuns fills r with counts[l] items for each slot l, in an order
// that interleaves the slots (a fixed shuffle per mix), and returns the
// items in that order.
func placeRuns(r *Runs[runItem], counts []int, mix uint64) []runItem {
	var in []runItem
	for l, c := range counts {
		for range c {
			in = append(in, runItem{slot: l})
		}
	}
	rand.New(rand.NewPCG(mix, 1)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	r.Reset(len(counts))
	for i := range in {
		in[i].seq = i
		r.Count(in[i].slot)
	}
	r.Layout()
	for i := range in {
		r.Place(in[i].slot, &in[i])
	}
	return in
}

// checkRuns fails unless each of the slots' Runs is exactly its items of
// in, in order, capped at its length, within one block or the spill, and
// unless no two runs share an address.
func checkRuns(t *testing.T, r *Runs[runItem], in []runItem, slots int) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var spans []span
	for l := range slots {
		var want []runItem
		for _, it := range in {
			if it.slot == l {
				want = append(want, it)
			}
		}
		got := r.Run(l)
		if !slices.Equal(got, want) || cap(got) != len(got) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%d slots, %d items: Run(%d) has len %d and cap %d, want len %d; first difference at %d",
				slots, len(in), l, len(got), cap(got), len(want), i)
		}
		if len(got) == 0 {
			continue
		}
		if lo := int(r.off[l]); lo>>blockShift < r.own && lo>>blockShift != (lo+len(got)-1)>>blockShift {
			t.Fatalf("Run(%d) of %d items at position %d crosses a block", l, len(got), lo)
		} else if lo>>blockShift >= r.own && len(got) <= BlockLen {
			t.Fatalf("Run(%d) of %d items is in the spill", l, len(got))
		}
		lo := uintptr(unsafe.Pointer(&got[0]))
		spans = append(spans, span{lo, lo + uintptr(len(got))*unsafe.Sizeof(got[0])})
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two runs overlap: [%#x, %#x) and [%#x, %#x)", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}

// TestRunsPlaceStably reuses one store for a series of placements, growing
// and shrinking: each slot's Run must be exactly its items in placement
// order. The placements include a run of exactly one block, runs one item
// longer (which go to the spill), and a run that would straddle a block
// boundary (which must start the next block). A fresh store over no slots
// (an empty shard) places nothing, and a fresh store's runs read empty
// from Reset on, as the soup's samples do before its first delivery.
func TestRunsPlaceStably(t *testing.T) {
	var empty Runs[runItem]
	empty.Reset(0)
	empty.Layout()
	if empty.Cap() != 0 {
		t.Fatalf("an empty placement holds %d items", empty.Cap())
	}
	var fresh Runs[runItem]
	fresh.Reset(3)
	for l := range 3 {
		if got := fresh.Run(l); len(got) != 0 {
			t.Fatalf("a fresh store's Run(%d) = %v", l, got)
		}
	}
	var r Runs[runItem]
	for i, counts := range [][]int{
		{2, 2, 2, 2, 2},
		{8, 8, 8, 8, 8},
		{3, 2, 2},
		{BlockLen},
		{1, BlockLen, 1},
		{BlockLen + 1},
		{5, BlockLen + 1, 0, 2*BlockLen + 3, 7},
		{200, 100},
		{0, 200, 0, 56, 1, 255, 2},
	} {
		in := placeRuns(&r, counts, uint64(i))
		checkRuns(t, &r, in, len(counts))
	}
	// {200, 100}: the second run would cross the first block's end.
	placeRuns(&r, []int{200, 100}, 0)
	if r.off[1] != BlockLen {
		t.Fatalf("a 100-item run after a 200-item one starts at %d, want %d", r.off[1], BlockLen)
	}
}

// TestRunsCap pins the memory ledger's figure: blocks × BlockLen plus the
// spill's capacity, after placements of short and long runs. The spill
// grows, by whole blocks, only when a placement's long runs exceed it, and
// the directory addresses every block of both.
func TestRunsCap(t *testing.T) {
	var r Runs[runItem]
	for _, tc := range []struct {
		counts        []int
		blocks, spill int
	}{
		{[]int{200, 100, 300, 5}, 2, 512}, // 200 | 100 5, and 300 in the spill
		{[]int{600}, 2, 768},              // the spill grows; the blocks stay
		{[]int{300, 300, 10}, 2, 768},     // two long runs end to end, in room held
		{[]int{256, 256, 256}, 3, 768},    // whole blocks
		{nil, 3, 768},
	} {
		placeRuns(&r, tc.counts, 0)
		if r.own != tc.blocks || cap(r.spill) != tc.spill || r.Cap() != tc.blocks*BlockLen+tc.spill || len(r.blocks)*BlockLen != r.Cap() {
			t.Fatalf("after placing %v: %d blocks, spill %d, Cap %d, directory %d; want %d, %d and %d",
				tc.counts, r.own, cap(r.spill), r.Cap(), len(r.blocks), tc.blocks, tc.spill, tc.blocks*BlockLen+tc.spill)
		}
	}
}

// TestRunsRefillAllocatesNothing places into a store that already holds
// the blocks and spill the placement needs, short and long runs alike, and
// over fewer slots: no allocation.
func TestRunsRefillAllocatesNothing(t *testing.T) {
	var r Runs[runItem]
	big := []int{5, BlockLen + 1, 0, 2*BlockLen + 3, 7, 200, 100}
	items := make([]runItem, 2048)
	place := func(counts []int) {
		r.Reset(len(counts))
		for l, c := range counts {
			for range c {
				r.Count(l)
			}
		}
		r.Layout()
		n := 0
		for l, c := range counts {
			for range c {
				items[n].slot = l
				r.Place(l, &items[n])
				n++
			}
		}
	}
	place(big)
	for _, counts := range [][]int{big, {BlockLen + 1, 3}, {1, 1, 1}, nil} {
		if got := testing.AllocsPerRun(5, func() { place(counts) }); got != 0 {
			t.Errorf("placing %v into a grown store made %v allocations", counts, got)
		}
	}
}

// FuzzRuns checks a series of placements into one store against a
// per-slot slice model. Each input byte is one slot's count in the
// current placement, 0xff ends a placement: a byte below 0x80 is that
// many items, one at or above it 200 + 3·(b&0x7f) (long runs and runs
// near a block's end). Every Run must equal its model slice in placement
// order, capped at its length, no run may cross a block, and no two runs
// may share an address; the store must hold exactly the blocks and spill
// (in whole blocks) its largest placement so far needed.
func FuzzRuns(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0x7f, 0x7f, 0x7f, 0xff, 0x80, 0x90, 0x05, 0xff, 0x00})
	f.Add([]byte{0xa0, 0x00, 0xc8, 0xff, 0x7f, 0x7f, 0xff, 0xfe, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Runs[runItem]
		var blocks, spill int
		var counts []int
		for i := 0; i <= len(data); i++ {
			if i < len(data) && data[i] != 0xff {
				c := int(data[i])
				if c >= 0x80 {
					c = 200 + 3*(c&0x7f)
				}
				counts = append(counts, c)
				continue
			}
			in := placeRuns(&r, counts, uint64(i))
			checkRuns(t, &r, in, len(counts))
			var pos, long int
			for _, c := range counts {
				switch {
				case c > BlockLen:
					long += c
					continue
				case pos%BlockLen+c > BlockLen:
					pos = (pos + BlockLen - 1) / BlockLen * BlockLen
				}
				pos += c
			}
			blocks, spill = max(blocks, (pos+BlockLen-1)/BlockLen), max(spill, (long+BlockLen-1)/BlockLen*BlockLen)
			if r.own != blocks || cap(r.spill) != spill {
				t.Fatalf("placement ending at byte %d: %d blocks and spill %d, want %d and %d",
					i, r.own, cap(r.spill), blocks, spill)
			}
			counts = counts[:0]
		}
	})
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
// finalized, and its helpers — parked or polling — exit. Crews that earlier
// tests dropped are collected first, so that only this test's crews move
// the count: one of them finalized mid-test would read as missing helpers.
func TestCrewHelpersExitWhenDropped(t *testing.T) {
	base := -1
	for try := 0; try < 500 && runtime.NumGoroutine() != base; try++ {
		base = runtime.NumGoroutine()
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
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

// TestCrewStealsFromAStalledWorker: index count−1 of each phase blocks
// until every other index has run, so whichever worker claims it stalls,
// and a helper that joins late leaves its range to the others. The phase
// must still finish, with every index run exactly once: the workers that
// are free drain the other ranges.
func TestCrewStealsFromAStalledWorker(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		c := NewCrew(workers)
		for _, count := range []int{1, workers - 1, workers, 65, 300} {
			for phase := 0; phase < 20; phase++ {
				visits := make([]atomic.Int32, count)
				var ran atomic.Int32
				var stuck atomic.Bool
				c.Do(count, func(i int) {
					if i == count-1 {
						for deadline := time.Now().Add(10 * time.Second); ran.Load() < int32(count-1); {
							if time.Now().After(deadline) {
								stuck.Store(true)
								break
							}
							time.Sleep(10 * time.Microsecond)
						}
					}
					visits[i].Add(1)
					ran.Add(1)
				})
				if stuck.Load() {
					t.Fatalf("workers=%d count=%d phase %d: only %d of the other %d indices ran while index %d waited",
						workers, count, phase, ran.Load()-1, count-1, count-1)
				}
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("workers=%d count=%d phase %d: index %d ran %d times",
							workers, count, phase, i, got)
					}
				}
			}
		}
	}
}

// TestCrewWorkClaimsOwnRangeFirst arms a phase without opening it, so no
// helper joins, and makes worker w's pass alone from one goroutine: it
// must claim its own range [w·count/W, (w+1)·count/W) in order, then every
// other range in ring order — w+1, w+2, … mod W.
func TestCrewWorkClaimsOwnRangeFirst(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		c := NewCrew(workers)
		for _, count := range []int{0, 1, workers - 1, workers, 65, 300} {
			for w := 0; w < workers; w++ {
				var got []int
				c.arm(count, func(i int) { got = append(got, i) })
				c.work(w)
				c.fn = nil
				var want []int
				for j := 0; j < workers; j++ {
					r := (w + j) % workers
					for i := r * count / workers; i < (r+1)*count/workers; i++ {
						want = append(want, i)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d count=%d: worker %d claimed %v, want %v", workers, count, w, got, want)
				}
			}
		}
		runtime.KeepAlive(c)
	}
}

// BenchmarkCrewDo prices the crew at its default size. "empty" is one
// phase of 64 indices that do nothing: the scheduler's own cost. "block"
// is a pair of phases that write, then read, a 16 KiB block per index, as
// a round's handlers write a shard's state and its gather reads it back:
// a worker that runs the same indices in both phases finds its blocks in
// its own cache.
func BenchmarkCrewDo(b *testing.B) {
	const count, block = 64, 16 << 10
	c := NewCrew(runtime.GOMAXPROCS(0))
	b.Run("empty", func(b *testing.B) {
		for range b.N {
			c.Do(count, func(int) {})
		}
	})
	b.Run("block", func(b *testing.B) {
		data := make([]uint64, count*block/8)
		sums := make([]uint64, count*8) // one cache line per index
		b.SetBytes(2 * count * block)
		b.ResetTimer()
		for n := range b.N {
			c.Do(count, func(i int) {
				blk := data[i*block/8 : (i+1)*block/8]
				for j := range blk {
					blk[j] = uint64(n + j)
				}
			})
			c.Do(count, func(i int) {
				var s uint64
				for _, v := range data[i*block/8 : (i+1)*block/8] {
					s += v
				}
				sums[i*8] = s
			})
		}
	})
}

// blockElem is a pointer-carrying element, as the engine's messages and
// payload cells are.
type blockElem struct {
	v int
	p *int
}

// TestBlocksGrowByBlocks grows fresh stores to several lengths: each new
// block is one allocation and no block is ever copied, so the only other
// allocations are the directory's doublings, logarithmic in the blocks.
func TestBlocksGrowByBlocks(t *testing.T) {
	for _, n := range []int{1, BlockLen - 1, BlockLen, BlockLen + 1, 3000, 40 * BlockLen} {
		blocks := (n + BlockLen - 1) / BlockLen
		var dirGrowths int
		got := testing.AllocsPerRun(5, func() {
			var b Blocks[blockElem]
			dirGrowths = 0
			for range n {
				dir := cap(b.blocks)
				b.Add()
				if cap(b.blocks) != dir {
					dirGrowths++
				}
			}
			if b.Len() != n || b.Cap() != blocks*BlockLen {
				t.Fatalf("grown to %d: Len %d, Cap %d, want %d and %d", n, b.Len(), b.Cap(), n, blocks*BlockLen)
			}
		})
		// The directory of block pointers doubles from 16 entries.
		if most := 1 + bits.Len(uint(blocks-1)); int(got) != blocks+dirGrowths || dirGrowths > most {
			t.Errorf("growing to %d elements (%d blocks) made %v allocations with %d directory growths, want %d blocks plus at most %d",
				n, blocks, got, dirGrowths, blocks, most)
		}
	}
}

// TestBlocksResetKeepsBlocks refills a grown store after Reset, to its old
// length and below: no allocation.
func TestBlocksResetKeepsBlocks(t *testing.T) {
	const n = 3000
	var b Blocks[blockElem]
	for range n {
		b.Add()
	}
	for _, refill := range []int{n, n / 2, 0} {
		if got := testing.AllocsPerRun(5, func() {
			b.Reset()
			for range refill {
				b.Add().v = 1
			}
		}); got != 0 {
			t.Errorf("Reset and a refill to %d of %d made %v allocations", refill, n, got)
		}
	}
}

// TestBlocksAddressesHold records every element's address as the store
// grows: At(i) must return the same pointer, holding what was written
// through it, after every later block.
func TestBlocksAddressesHold(t *testing.T) {
	const n = 10 * BlockLen
	var b Blocks[blockElem]
	ptrs := make([]*blockElem, 0, n)
	for i := range n {
		e := b.Add()
		e.v = i
		ptrs = append(ptrs, e)
		if (i+1)%BlockLen != 0 {
			continue
		}
		for j, p := range ptrs {
			if b.At(j) != p || p.v != j {
				t.Fatalf("after %d adds: At(%d) = %p holding %d, first handed out %p", i+1, j, b.At(j), b.At(j).v, p)
			}
		}
	}
	for lo := 0; lo < n; lo += 64 {
		if s := b.Span(lo, lo+64); &s[0] != ptrs[lo] || cap(s) != 64 {
			t.Fatalf("Span(%d, %d) starts at %p (cap %d), At(%d) is %p", lo, lo+64, &s[0], cap(s), lo, ptrs[lo])
		}
	}
}

// TestBlocksResetDropsReferences fills a store with pointer-carrying
// elements and resets it: every position of every block must read zero,
// so a recycled block pins nothing an earlier element pointed at.
func TestBlocksResetDropsReferences(t *testing.T) {
	var b Blocks[blockElem]
	x := 7
	for i := range 3*BlockLen + 5 {
		*b.Add() = blockElem{v: i, p: &x}
	}
	b.Reset()
	if b.Len() != 0 || b.Cap() != 4*BlockLen {
		t.Fatalf("after Reset: Len %d, Cap %d, want 0 and %d", b.Len(), b.Cap(), 4*BlockLen)
	}
	for k, blk := range b.blocks {
		for i := range blk {
			if blk[i] != (blockElem{}) {
				t.Fatalf("block %d position %d holds %+v after Reset", k, i, blk[i])
			}
		}
	}
}

// FuzzBlocks checks sequences of Add, Reset, At and Span against a plain
// slice. Each input byte is one operation: its low two bits pick it, the
// rest is its argument. 0: add 1 + 4·arg elements (up to 253, so a few
// bytes cross blocks); 1: Reset; 2: At at arg scaled into [0, Len], the
// end panicking; 3: Span of one block's run through arg. After every
// operation Len must equal the model's, Cap must be whole blocks holding
// the longest fill so far, and every Add must hand out a zero element.
func FuzzBlocks(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xfc, 0xfc, 0xfa, 0x02, 0x01, 0xfc, 0x06, 0xff})
	f.Add([]byte{0x04, 0x01, 0x00, 0x02, 0xfe, 0x03, 0xfc, 0xfc, 0xfc, 0xfc, 0x1f, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Blocks[blockElem]
		var model []blockElem
		x, longest := 0, 0
		for step, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0:
				for range 1 + 4*arg {
					e := b.Add()
					if *e != (blockElem{}) {
						t.Fatalf("op %d: Add handed out %+v", step, *e)
					}
					*e = blockElem{v: len(model) ^ step, p: &x}
					model = append(model, *e)
				}
			case 1:
				b.Reset()
				model = model[:0]
			case 2:
				i := arg * len(model) / 63
				if i == len(model) {
					if !panicked(func() { b.At(i) }) {
						t.Fatalf("op %d: At(%d) of %d did not panic", step, i, len(model))
					}
					break
				}
				if got := *b.At(i); got != model[i] {
					t.Fatalf("op %d: At(%d) = %+v, want %+v", step, i, got, model[i])
				}
			case 3:
				if len(model) == 0 {
					break
				}
				i := arg * (len(model) - 1) / 63
				lo := i &^ (BlockLen - 1)
				hi := min(lo+BlockLen, len(model))
				if got := b.Span(lo, hi); !slices.Equal(got, model[lo:hi]) {
					t.Fatalf("op %d: Span(%d, %d) differs from the model", step, lo, hi)
				}
				if hi < len(model) && !panicked(func() { b.Span(lo, hi+1) }) {
					t.Fatalf("op %d: Span(%d, %d) across blocks did not panic", step, lo, hi+1)
				}
			}
			longest = max(longest, len(model))
			if want := (longest + BlockLen - 1) / BlockLen * BlockLen; b.Len() != len(model) || b.Cap() != want {
				t.Fatalf("op %d: Len %d, Cap %d, want %d and %d", step, b.Len(), b.Cap(), len(model), want)
			}
		}
	})
}

// panicked reports whether fn panicked.
func panicked(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}
