// Package shard provides the slot-sharding helpers shared by the
// engine's message exchange (internal/simnet) and the walk soup's token
// exchange (internal/walks). Both move per-slot data with the same
// two-phase discipline: scatter by source shard, gather by destination
// shard, merging source shards in fixed index order. Every parallel
// phase of a round runs on the engine's one Crew (crew.go), which gives
// each worker the same contiguous range of every phase over the grid.
//
// The shard count of a Grid is fixed at construction — NOT GOMAXPROCS —
// so that scatter output and gather merge order are identical on every
// machine and at every worker count. That constant order is what lets
// the engine deliver canonically ordered inboxes without sorting:
// determinism is structural, not re-established after the fact.
//
// Results do not depend on the shard count either: every Grid partitions
// the slot range into contiguous ascending intervals and every gather
// merges source shards in index order, so whatever lands at a slot
// arrives in source-slot order on any grid — the engine's inboxes, and
// the soup's per-slot samples (a source shard holds its cohort in
// birth-slot order). Pick may therefore size the grid from n and
// GOMAXPROCS: the count is a throughput knob like the worker count
// (TestShardCountIndependence in the root package pins it).
package shard

import "math/bits"

const (
	// MinCount is the smallest grid Pick returns: small enough that tiny
	// networks don't pay per-shard padding for dozens of empty shards,
	// large enough to spread over every core count we target.
	MinCount = 16
	// MaxCount bounds the grid so per-shard state (telemetry stripes,
	// staging buffer headers) stays cheap and shard indices fit the
	// 32-LocalBits top bits of a packed location with room to spare.
	MaxCount = 256
	// DefaultCount is the historical fixed grid, which Pick still
	// yields for mid-sized networks (n=65536 on <= 4 cores).
	DefaultCount = 64
)

// Loc packs a slot's (shard, local index within the shard) pair into one
// uint32: shard in the top bits, local index in the low LocalBits. Hot
// exchange loops resolve a destination slot with a single table load
// (LocTable) instead of a hardware divide (Of) plus a Bounds subtraction.
const (
	// LocalBits is the width of the local-index field; with 8 shard bits
	// on top (MaxCount = 256), per-shard spans up to 2^24 slots are
	// addressable — n up to MaxCount<<LocalBits = 2^32 slots total.
	LocalBits = 24
	localMask = 1<<LocalBits - 1
)

// Grid is a slot-sharding layout with a fixed power-of-two shard count.
// The zero value is invalid; construct with New or Pick.
type Grid struct {
	count int
}

// New returns a grid with the given shard count, which must be a power
// of two in [1, MaxCount].
func New(count int) Grid {
	if count < 1 || count > MaxCount || count&(count-1) != 0 {
		panic("shard: count must be a power of two in [1, MaxCount]")
	}
	return Grid{count: count}
}

// Pick sizes a grid for a network of n slots running on procs cores
// (procs <= 0 means 1). The rule: one shard per ~1024 slots — small
// enough that work-stealing over shards load-balances, large enough
// that per-shard buffers amortize — floored at max(MinCount, 4·procs)
// so every core has shards to steal even on small networks, and capped
// at MaxCount. n=65536 on <=4 cores yields DefaultCount, preserving the
// historical grid at the benchmark anchor size.
func Pick(n, procs int) Grid {
	if procs < 1 {
		procs = 1
	}
	c := ceilPow2(n / 1024)
	if f := ceilPow2(4 * procs); f > c {
		c = f
	}
	if c < MinCount {
		c = MinCount
	}
	if c > MaxCount {
		c = MaxCount
	}
	return Grid{count: c}
}

// ceilPow2 returns the smallest power of two >= x (and 1 for x <= 1).
func ceilPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// Count returns the grid's shard count.
func (g Grid) Count() int { return g.count }

// Bounds returns the slot range [lo, hi) owned by shard sh. Shards may be
// empty when n < the grid count. Ranges are contiguous and ascending in
// sh — the property the cross-count determinism argument rests on.
func (g Grid) Bounds(sh, n int) (lo, hi int) {
	return sh * n / g.count, (sh + 1) * n / g.count
}

// Of maps a slot in [0, n) to its shard, exactly consistent with Bounds:
// slot s belongs to the unique shard sh with Bounds(sh, n) containing s.
// (The naive slot*count/n disagrees with the Bounds partition for some
// (slot, n); this is the proper inverse: the largest sh with
// sh*n/count <= slot.)
func (g Grid) Of(slot, n int) int {
	return (g.count*(slot+1) - 1) / n
}

// LocTable returns the slot → packed (shard, local) location table for a
// network of n slots: LocTable(n)[s] >> LocalBits is the shard sh whose
// Bounds(sh, n) = [lo, hi) holds s, and LocTable(n)[s] & (1<<LocalBits - 1)
// is s - lo.
// Build once at setup; 4 bytes per slot.
func (g Grid) LocTable(n int) []uint32 {
	t := make([]uint32, n)
	for sh := 0; sh < g.count; sh++ {
		lo, hi := g.Bounds(sh, n)
		if hi-lo > 1<<LocalBits {
			panic("shard: per-shard span exceeds LocTable addressable range")
		}
		for s := lo; s < hi; s++ {
			t[s] = uint32(sh)<<LocalBits | uint32(s-lo)
		}
	}
	return t
}

// Loc unpacks a LocTable entry into (shard, local index).
func Loc(loc uint32) (sh, local int) {
	return int(loc >> LocalBits), int(loc & localMask)
}

// Carve returns n empty buffers cut from one array, each with room for
// each items. Append fills a buffer in place until it outgrows its room,
// then moves it to an array of its own, so a buffer never spills into its
// neighbour; buffers that stay small cost one allocation between them
// rather than a growth chain each.
func Carve[T any](n, each int) [][]T {
	arena := make([]T, n*each)
	bufs := make([][]T, n)
	for i := range bufs {
		bufs[i] = arena[i*each : i*each : (i+1)*each]
	}
	return bufs
}

// Runs is a flat slot-major store for a range of slots, filled by a stable
// counting sort: every item bound for those slots lands in one buffer, and
// each slot's items are a sub-slice of it. One geometrically grown buffer
// per shard replaces per-slot append slices, whose record-maxima growth
// kept a gather allocating long into the steady state. The engine's inbox
// arenas and the soup's sample stores are Runs.
//
// A placement calls Reset, Count for every item's slot, Layout, then Place
// for every item in the same order; Run(l) is then slot l's items in
// placement order, until the next Reset. The zero value is ready for Reset.
type Runs[T any] struct {
	items []T
	off   []int32 // len slots+1: slot l owns items[off[l]:off[l+1]]
	next  []int32 // per-slot counts, then placement cursors; len slots
}

// Reset starts a placement over slots slots, reusing the store's buffers.
func (r *Runs[T]) Reset(slots int) {
	if cap(r.off) < slots+1 {
		r.next, r.off = make([]int32, slots), make([]int32, slots+1)
		return
	}
	r.next, r.off = r.next[:slots], r.off[:slots+1]
	clear(r.next)
}

// Count counts one item bound for slot l.
func (r *Runs[T]) Count(l int) { r.next[l]++ }

// Layout turns the counts into the slots' offsets, sizes the buffer to hold
// them all, and leaves each slot's cursor at its first position.
func (r *Runs[T]) Layout() {
	var total int32
	for l, c := range r.next {
		r.off[l], r.next[l] = total, total
		total += c
	}
	r.off[len(r.next)] = total
	if cap(r.items) < int(total) {
		r.items = make([]T, total, max(int(total), 2*cap(r.items)))
	} else {
		r.items = r.items[:total]
	}
}

// Place copies *v to the next position of slot l's run.
func (r *Runs[T]) Place(l int, v *T) {
	pos := r.next[l]
	r.next[l] = pos + 1
	r.items[pos] = *v
}

// Run returns slot l's items, capped so an append cannot reach the next run.
func (r *Runs[T]) Run(l int) []T {
	lo, hi := r.off[l], r.off[l+1]
	return r.items[lo:hi:hi]
}

// Cap returns the item buffer's capacity (the memory ledger's figure).
func (r *Runs[T]) Cap() int { return cap(r.items) }

// BlockLen is the length of a Blocks block: 256 elements, 16 KiB of the
// engine's 64-byte message header. Indices split into block and offset by
// a shift and a mask.
const (
	blockShift = 8
	BlockLen   = 1 << blockShift
	blockMask  = BlockLen - 1
)

// Blocks is an append-only store of fixed-length blocks. Growth allocates
// one new block and copies nothing, so an element's address is stable
// until Reset, and a store allocates what it holds, besides its directory
// of block pointers (8 bytes a block). Reset keeps the blocks for the next
// fill. The engine's send buffers and payload cells and the router's
// walkers are Blocks.
//
// Every position at or past Len is the zero value: blocks are allocated
// zeroed and Reset clears the positions it takes back, so Add hands out a
// zero element and a recycled block pins nothing its earlier elements
// referenced. The zero value is an empty store.
type Blocks[T any] struct {
	blocks []*[BlockLen]T
	n      int
}

// Add extends the store by one element and returns it, zeroed.
func (b *Blocks[T]) Add() *T {
	n := b.n
	if n>>blockShift == len(b.blocks) {
		b.grow()
	}
	b.n = n + 1
	return &b.blocks[n>>blockShift][n&blockMask]
}

// grow adds one zeroed block. The directory of block pointers starts with
// room for 16 blocks and doubles, so a store of a few blocks grows it once.
func (b *Blocks[T]) grow() {
	if b.blocks == nil {
		b.blocks = make([]*[BlockLen]T, 0, 16)
	}
	b.blocks = append(b.blocks, new([BlockLen]T))
}

// At returns element i, which must be below Len.
func (b *Blocks[T]) At(i int) *T {
	if uint(i) >= uint(b.n) {
		panic("shard: Blocks index out of range")
	}
	return &b.blocks[i>>blockShift][i&blockMask]
}

// Span returns elements [lo, hi) as a slice of their block; they must lie
// in one block (lo and hi-1 agree above the low blockShift bits) and below
// Len. The slice is capped at hi, so an append to it cannot reach hi.
func (b *Blocks[T]) Span(lo, hi int) []T {
	if lo < 0 || lo >= hi || hi > b.n || lo>>blockShift != (hi-1)>>blockShift {
		panic("shard: Blocks span out of range or across blocks")
	}
	blk, off := b.blocks[lo>>blockShift], lo&blockMask
	return blk[off : off+hi-lo : off+hi-lo]
}

// Len returns the number of elements added since the last Reset.
func (b *Blocks[T]) Len() int { return b.n }

// Cap returns how many elements the store's blocks hold (the memory
// ledger's figure).
func (b *Blocks[T]) Cap() int { return len(b.blocks) * BlockLen }

// Reset empties the store, keeping its blocks, and zeroes the elements it
// held, so the next fill starts from zero values and pins nothing the last
// one referenced.
func (b *Blocks[T]) Reset() {
	for k := 0; b.n > 0; k++ {
		m := min(b.n, BlockLen)
		clear(b.blocks[k][:m])
		b.n -= m
	}
}
