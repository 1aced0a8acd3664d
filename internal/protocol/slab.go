package protocol

import (
	"fmt"
	"math/bits"
	"unsafe"

	"dynp2p/internal/ida"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
)

// slab is one engine shard's store of the protocol arrays its nodes never
// send: per element type, one linked free store of arrays by power-of-two
// capacity and a block to cut new arrays from. A table's keys and values, a
// membership's sample-window sources, count table and gathered pieces, a
// search's fetched pieces and asked-set, and the shard's committee census
// all grow through their shard's slab, and go back to it when their owner
// drops them: a table's old arrays when it grows, a membership's when the
// node resigns (onHandover), a search's when it finishes (finishSearch),
// and all of a node's when churn replaces it (OnJoin). An array is cleared
// before it is filed, so nothing in a slab keeps a departed owner's
// rosters or bytes reachable.
//
// A shard's slab is touched only by that shard's handler phase and by the
// serial churn phase, so nothing is locked; and an array's capacity is a
// function of its owner's length history alone, never of which array was
// reused, so no result depends on the worker count or the shard grid.
// Rosters, blobs and every id list a node sends are shared and immutable
// once sent (DESIGN.md §2) and never enter a slab.
type slab struct {
	keys     freeLists[uint64]        // every table's keys
	counts   freeLists[int]           // a membership's count table values, the census's counts
	members  freeLists[membership]    // memberships' values
	marks    freeLists[lmEntry]       // storageLM's values
	tasks    freeLists[searchTask]    // searchLM's values
	searches freeLists[searchState]   // searches' values
	ids      freeLists[simnet.NodeID] // a membership's sources, a search's asked-set
	pieces   freeLists[ida.Piece]     // a membership's gathered pieces, a search's pieces
	item     []byte                   // the item a leader candidate decodes, reused by the shard's next handover
}

// slabClasses is the number of capacity classes, 1 to 2^(slabClasses-1).
// An array too large for the last class is left to the collector when it
// is dropped.
const slabClasses = 24

// freeLists is one free store of cleared arrays of T. Every filed array
// sits in an entry of filed, linked into the chain of its capacity class:
// heads[c] starts the chain of arrays of capacity 1<<c, newest first. An
// entry whose array was taken again is linked into the chain of empty
// entries, which the next filing reuses, so the store grows by one
// doubling chain however many classes it files — not one per class. Links
// are entry indexes plus one; 0 ends a chain, so the zero store is empty.
// rest is the unused, zero rest of the current block.
type freeLists[T any] struct {
	filed []filedArray[T]
	heads [slabClasses]int32
	empty int32
	rest  []T
}

// filedArray is one entry of a free store: a filed array (nil in an empty
// entry) and the link to the next entry of its chain.
type filedArray[T any] struct {
	array []T
	next  int32
}

// blockLen returns the elements in a block of T: the largest power of two
// whose bytes fit in 2 KiB, and at least one.
func blockLen[T any]() int { return 1 << (bits.Len(uint(2048/sizeOf[T]())|1) - 1) }

// grow returns s with room for n more elements: s itself if it has the
// room, else s's elements moved to an array of the next power-of-two
// capacity — the one f filed last in that class, else cut from f's block
// or, if larger than a block, made — and s's array handed back to f.
func (f *freeLists[T]) grow(s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	c := bits.Len(uint(len(s) + n - 1))
	var t []T
	switch k := 1 << c; {
	case c < slabClasses && f.heads[c] != 0:
		i := f.heads[c]
		e := &f.filed[i-1]
		t, f.heads[c] = e.array, e.next
		e.array, e.next, f.empty = nil, f.empty, i
	case k <= blockLen[T]():
		if len(f.rest) < k {
			f.rest = make([]T, blockLen[T]())
		}
		t, f.rest = f.rest[:0:k], f.rest[k:]
	default:
		t = make([]T, 0, k)
	}
	t = append(t, s...)
	f.free(s)
	return t
}

// free clears s's whole array and files it for reuse, at the head of its
// class's chain. s must come from grow (or be empty): a capacity that is
// not a power of two is a slice that did not, and panics.
func (f *freeLists[T]) free(s []T) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s) - 1))
	if 1<<c != cap(s) {
		panic(fmt.Sprintf("protocol: a slab array of capacity %d", cap(s)))
	}
	clear(s[:cap(s)])
	if c >= slabClasses {
		return
	}
	i := f.empty
	if i != 0 {
		f.empty = f.filed[i-1].next
	} else {
		f.filed = append(f.filed, filedArray[T]{})
		i = int32(len(f.filed))
	}
	f.filed[i-1] = filedArray[T]{s[:0], f.heads[c]}
	f.heads[c] = i
}

// bytes returns the bytes the filed arrays and the block's rest hold.
func (f *freeLists[T]) bytes() int {
	n := len(f.rest)
	for i := range f.filed {
		n += cap(f.filed[i].array)
	}
	return n * sizeOf[T]()
}

// sizeOf returns the size of a T in bytes.
func sizeOf[T any]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// capBytes returns the bytes s's array holds.
func capBytes[T any](s []T) int { return cap(s) * sizeOf[T]() }

// valsOf returns sl's free lists for a table's values of type V: one list
// set per value type a table holds.
func valsOf[V any](sl *slab) *freeLists[V] {
	var f any
	switch any((*V)(nil)).(type) {
	case *int:
		f = &sl.counts
	case *membership:
		f = &sl.members
	case *lmEntry:
		f = &sl.marks
	case *searchTask:
		f = &sl.tasks
	case *searchState:
		f = &sl.searches
	}
	return f.(*freeLists[V])
}

// release hands the membership's epoch scratch back to the slab: the node
// leaves the committee.
func (m *membership) release(sl *slab) {
	sl.ids.free(m.sources)
	m.counts.release(sl)
	sl.pieces.free(m.gathered)
	m.sources, m.gathered = nil, nil
}

// release hands the search's arrays back to the slab: it has ended.
func (srch *searchState) release(sl *slab) {
	sl.pieces.free(srch.pieces)
	sl.ids.free(srch.roster)
	srch.pieces, srch.roster = nil, nil
}

// collectMemory is the protocol's row of the memory ledger: the bytes the
// nodes' protocol arrays hold (every table's keys and values, the arrays
// inside a membership or a search that grow through the slab, and the
// shards' committee census), the slabs' free arrays and blocks' rests, and
// the IDA dispersals (items, piece headers, blocks) and decode scratch:
// capacity × element size, at a snapshot.
func (h *Handler) collectMemory(emit func(name string, kind telemetry.Kind, v int64)) {
	tables := 0
	for s := range h.states {
		st := &h.states[s]
		tables += st.memberships.bytes() + st.storageLM.bytes() + st.searchLM.bytes() + st.searches.bytes()
		for i := range st.memberships.vals {
			m := &st.memberships.vals[i]
			tables += capBytes(m.sources) + m.counts.bytes() + capBytes(m.gathered)
		}
		for i := range st.searches.vals {
			srch := &st.searches.vals[i]
			tables += capBytes(srch.pieces) + capBytes(srch.roster)
		}
	}
	for i := range h.census {
		tables += h.census[i].bytes()
	}
	free, dispersals := 0, 0
	for i := range h.slabs {
		sl := &h.slabs[i]
		free += sl.keys.bytes() + sl.counts.bytes() + sl.members.bytes() + sl.marks.bytes() +
			sl.tasks.bytes() + sl.searches.bytes() + sl.ids.bytes() + sl.pieces.bytes()
		dispersals += cap(sl.item)
	}
	for _, d := range h.dispersals {
		dispersals += cap(d.item) + capBytes(d.pieces) + h.code.TotalStoredBytes(len(d.item))
	}
	emit("dynp2p_proto_mem_table_bytes", telemetry.KindGauge, int64(tables))
	emit("dynp2p_proto_mem_slab_free_bytes", telemetry.KindGauge, int64(free))
	emit("dynp2p_proto_mem_dispersal_bytes", telemetry.KindGauge, int64(dispersals))
}
