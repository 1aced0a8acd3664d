package protocol

import (
	"cmp"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dynp2p/internal/churn"
	"dynp2p/internal/ida"
	"dynp2p/internal/simnet"
)

// filed reports whether s's array is one f holds free.
func filed[T any](f *freeLists[T], s []T) bool {
	if cap(s) == 0 {
		return false
	}
	c := bits.Len(uint(cap(s) - 1))
	if c >= slabClasses {
		return false
	}
	for i := f.heads[c]; i != 0; i = f.filed[i-1].next {
		if a := f.filed[i-1].array; &a[:1][0] == &s[:1][0] {
			return true
		}
	}
	return false
}

// checkStore returns what is wrong with f's links, or "": every entry must
// be on exactly one chain, a class chain or the empty chain; a class-c
// chain must hold only arrays of capacity 1<<c, and the empty chain no
// array.
func checkStore[T any](f *freeLists[T]) string {
	seen := make([]bool, len(f.filed))
	walk := func(head int32, what string, ok func([]T) bool) string {
		for i := head; i != 0; i = f.filed[i-1].next {
			if i < 0 || int(i) > len(f.filed) {
				return fmt.Sprintf("the %s chain links to entry %d of %d", what, i, len(f.filed))
			}
			if seen[i-1] {
				return fmt.Sprintf("entry %d is on the %s chain and on another, or twice", i, what)
			}
			seen[i-1] = true
			if a := f.filed[i-1].array; !ok(a) {
				return fmt.Sprintf("the %s chain holds an array of capacity %d", what, cap(a))
			}
		}
		return ""
	}
	for c := range f.heads {
		if msg := walk(f.heads[c], fmt.Sprintf("class-%d", c), func(a []T) bool { return cap(a) == 1<<c }); msg != "" {
			return msg
		}
	}
	if msg := walk(f.empty, "empty", func(a []T) bool { return a == nil }); msg != "" {
		return msg
	}
	if i := slices.Index(seen, false); i >= 0 {
		return fmt.Sprintf("entry %d of %d is on no chain", i+1, len(f.filed))
	}
	return ""
}

// checkStores returns what is wrong with the links of any of sl's stores,
// or "".
func (sl *slab) checkStores() string {
	return cmp.Or(checkStore(&sl.keys), checkStore(&sl.counts), checkStore(&sl.members), checkStore(&sl.marks),
		checkStore(&sl.tasks), checkStore(&sl.searches), checkStore(&sl.ids), checkStore(&sl.pieces))
}

// allZero reports whether every element of s's whole array is T's zero.
func allZero[T any](s []T) bool {
	s = s[:cap(s)]
	for i := range s {
		if !reflect.ValueOf(&s[i]).Elem().IsZero() {
			return false
		}
	}
	return true
}

// heldArray is one array a node's membership or search held, noted before
// the owner was dropped: check reports whether the slab holds it free and
// fails the test if it does and still holds anything.
type heldArray struct {
	what  string
	check func(t *testing.T, sl *slab) bool
}

// noteHeld appends s's array to dst, unless s has none; lists picks the
// slab's free lists for T.
func noteHeld[T any](dst []heldArray, what string, s []T, lists func(sl *slab) *freeLists[T]) []heldArray {
	if cap(s) == 0 {
		return dst
	}
	s = s[:cap(s)]
	return append(dst, heldArray{what, func(t *testing.T, sl *slab) bool {
		if !filed(lists(sl), s) {
			return false
		}
		if !allZero(s) {
			t.Errorf("%s went back to the slab holding %v", what, s)
		}
		return true
	}})
}

// heldArrays notes every slab-grown array the membership holds.
func (m *membership) heldArrays() []heldArray {
	a := noteHeld(nil, "a membership's sources", m.sources, func(sl *slab) *freeLists[simnet.NodeID] { return &sl.ids })
	a = noteHeld(a, "a membership's count keys", m.counts.keys, func(sl *slab) *freeLists[uint64] { return &sl.keys })
	a = noteHeld(a, "a membership's counts", m.counts.vals, func(sl *slab) *freeLists[int] { return &sl.counts })
	return noteHeld(a, "a membership's gathered pieces", m.gathered, func(sl *slab) *freeLists[ida.Piece] { return &sl.pieces })
}

// heldArrays notes every slab-grown array the search holds.
func (srch *searchState) heldArrays() []heldArray {
	a := noteHeld(nil, "a search's pieces", srch.pieces, func(sl *slab) *freeLists[ida.Piece] { return &sl.pieces })
	return noteHeld(a, "a search's asked-set", srch.roster, func(sl *slab) *freeLists[simnet.NodeID] { return &sl.ids })
}

// dropProbe is the protocol handler with a check around every node's
// round: it notes the arrays of the node's memberships and searches, and
// after the round, for each owner the node dropped — a membership it
// resigned, a search that ended — checks that every noted array the slot's
// shard slab now holds free is all zeros. (A noted array the same round
// handed on to a new owner is not in the slab, and not the old owner's.)
type dropProbe struct {
	*Handler
	t               *testing.T
	mu              sync.Mutex
	resigned, ended int // arrays found filed, by how their owner was dropped
}

func (p *dropProbe) HandleRound(ctx *simnet.Ctx) {
	st := &p.states[ctx.Slot]
	members := map[uint64][]heldArray{}
	for i := range st.memberships.vals {
		members[st.memberships.keys[i]] = st.memberships.vals[i].heldArrays()
	}
	searches := map[uint64][]heldArray{}
	for i := range st.searches.vals {
		searches[st.searches.keys[i]] = st.searches.vals[i].heldArrays()
	}
	p.Handler.HandleRound(ctx)
	sl := &p.slabs[ctx.Shard]
	resigned, ended := 0, 0
	for key, arrays := range members {
		if st.memberships.get(key) == nil {
			for _, a := range arrays {
				if a.check(p.t, sl) {
					resigned++
				}
			}
		}
	}
	for key, arrays := range searches {
		if st.searches.get(key) == nil {
			for _, a := range arrays {
				if a.check(p.t, sl) {
					ended++
				}
			}
		}
	}
	p.mu.Lock()
	p.resigned += resigned
	p.ended += ended
	p.mu.Unlock()
}

// arrayRange is the address range [lo, hi) of an array's whole capacity.
type arrayRange struct {
	lo, hi uintptr
	what   string
}

// rangeOf returns the range of s's array, empty if s has none.
func rangeOf[T any](s []T, what string) arrayRange {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return arrayRange{lo, lo + uintptr(cap(s))*unsafe.Sizeof(*new(T)), what}
}

// overlap names two of the ranges that share a byte, or returns "" if no
// two do. Comparing whole ranges, not first elements, is what sees two
// arrays cut overlapping from one block.
func overlap(rs []arrayRange) string {
	rs = slices.DeleteFunc(rs, func(r arrayRange) bool { return r.hi == r.lo })
	slices.SortFunc(rs, func(a, b arrayRange) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(rs); i++ {
		if a, b := rs[i-1], rs[i]; b.lo < a.hi {
			return fmt.Sprintf("%s [%#x, %#x) and %s [%#x, %#x) overlap", a.what, a.lo, a.hi, b.what, b.lo, b.hi)
		}
	}
	return ""
}

// freeRanges appends the ranges of the arrays f holds free and of its
// block's rest, and reports whether they all hold zeros only.
func freeRanges[T any](rs []arrayRange, zero bool, f *freeLists[T], what string) ([]arrayRange, bool) {
	for _, e := range f.filed {
		rs = append(rs, rangeOf(e.array, "free "+what))
		zero = zero && allZero(e.array)
	}
	return append(rs, rangeOf(f.rest, "the rest of a block of "+what)), zero && allZero(f.rest)
}

// freeRanges returns the ranges of every array sl holds free and of every
// block's unused rest, and whether they all hold zeros only.
func (sl *slab) freeRanges() ([]arrayRange, bool) {
	rs, zero := freeRanges(nil, true, &sl.keys, "keys")
	rs, zero = freeRanges(rs, zero, &sl.counts, "counts")
	rs, zero = freeRanges(rs, zero, &sl.members, "memberships")
	rs, zero = freeRanges(rs, zero, &sl.marks, "storage landmarks")
	rs, zero = freeRanges(rs, zero, &sl.tasks, "search tasks")
	rs, zero = freeRanges(rs, zero, &sl.searches, "searches")
	rs, zero = freeRanges(rs, zero, &sl.ids, "ids")
	return freeRanges(rs, zero, &sl.pieces, "pieces")
}

// heldRanges returns the ranges of every slab-grown array h's nodes hold —
// their tables' keys and values, and the arrays inside their memberships
// and searches — and of the shards' census tables.
func heldRanges(h *Handler) []arrayRange {
	var rs []arrayRange
	for i := range h.census {
		rs = append(rs, rangeOf(h.census[i].keys, "the census's keys"), rangeOf(h.census[i].vals, "the census's counts"))
	}
	for s := range h.states {
		st := &h.states[s]
		rs = append(rs,
			rangeOf(st.memberships.keys, "memberships' keys"), rangeOf(st.memberships.vals, "memberships"),
			rangeOf(st.storageLM.keys, "storage landmarks' keys"), rangeOf(st.storageLM.vals, "storage landmarks"),
			rangeOf(st.searchLM.keys, "search tasks' keys"), rangeOf(st.searchLM.vals, "search tasks"),
			rangeOf(st.searches.keys, "searches' keys"), rangeOf(st.searches.vals, "searches"))
		for i := range st.memberships.vals {
			m := &st.memberships.vals[i]
			rs = append(rs, rangeOf(m.sources, "a membership's sources"),
				rangeOf(m.counts.keys, "a membership's count keys"), rangeOf(m.counts.vals, "a membership's counts"),
				rangeOf(m.gathered, "a membership's gathered pieces"))
		}
		for i := range st.searches.vals {
			srch := &st.searches.vals[i]
			rs = append(rs, rangeOf(srch.pieces, "a search's pieces"), rangeOf(srch.roster, "a search's asked-set"))
		}
	}
	return rs
}

// checkSlabsZero fails t if any array a slab holds free, or the unused rest
// of any block, holds anything, or if two arrays the nodes hold or the
// slabs hold free share an element.
func checkSlabsZero(t *testing.T, h *Handler) {
	t.Helper()
	rs, zero := heldRanges(h), true
	for i := range h.slabs {
		free, z := h.slabs[i].freeRanges()
		rs, zero = append(rs, free...), zero && z
	}
	if msg := overlap(rs); msg != "" {
		t.Fatal(msg)
	}
	if !zero {
		t.Fatal("a slab holds a free array or a block's rest that is not cleared")
	}
	for i := range h.slabs {
		if msg := h.slabs[i].checkStores(); msg != "" {
			t.Fatalf("shard %d's slab: %s", i, msg)
		}
	}
}

// TestSlabDropsReferences is the slab's counterpart of
// TestTableResetDropsReferences: an array handed back to a slab holds
// nothing of its last owner — not on a resign (onHandover), not at a
// search's end (finishSearch), not when churn replaces its node (OnJoin,
// which hands back the node's tables' arrays too) — and no
// array any slab holds free holds anything, after every round. The run
// stores IDA items (K = 4), so members gather pieces and searchers fetch
// them.
func TestSlabDropsReferences(t *testing.T) {
	const n, k = 256, 4
	s := newSim(t, n, churn.ZeroLaw{}, k, 31)
	p := &dropProbe{Handler: s.h, t: t}
	s.e.Run(p, s.soup.Params().WalkLength+3)
	const keys = 4
	for key := uint64(1); key <= keys; key++ {
		p.RequestStore(s.e, int(key)*37, key, itemBytes(key, 200))
	}
	s.e.Run(p, 2)
	ok := 0
	for r := 0; r < 3*p.P.Period; r++ {
		if r%3 == 0 {
			key := 1 + uint64(r/3)%keys
			p.RequestRetrieve(s.e, (r*29+11)%n, key, itemBytes(key, 200))
		}
		s.e.Run(p, 1)
		checkSlabsZero(t, p.Handler)
		for _, res := range p.DrainResults() {
			if res.Success {
				ok++
			}
		}
	}
	if p.resigned == 0 || p.ended == 0 || ok == 0 {
		t.Fatalf("%d arrays filed on a resign, %d at a search's end (%d retrievals succeeded): every path must run",
			p.resigned, p.ended, ok)
	}
	t.Logf("%d arrays filed on a resign, %d at a search's end; %d retrievals succeeded", p.resigned, p.ended, ok)

	// Churn: replace a member with epoch scratch that runs a search
	// holding a piece; every array of its tables, memberships and
	// searches goes back.
	slot := -1
	for sl := range p.states {
		for i := range p.states[sl].memberships.vals {
			if m := &p.states[sl].memberships.vals[i]; cap(m.sources) > 0 && cap(m.counts.keys) > 0 && cap(m.gathered) > 0 {
				slot = sl
			}
		}
	}
	if slot < 0 {
		t.Fatal("no member holds an epoch's sources, counts and pieces")
	}
	const missing = 999
	p.RequestRetrieve(s.e, slot, missing, nil)
	st := &p.states[slot]
	for r := 0; st.searches.get(missing) == nil; r++ {
		if r > p.P.SearchTTL() {
			t.Fatal("the search never formed")
		}
		s.e.Run(p, 1)
	}
	sl := &p.slabs[s.e.Grid().Of(slot, n)]
	srch := st.searches.get(missing)
	srch.pieces = addPiece(&sl.pieces, srch.pieces, ida.Piece{Index: 1, Data: []byte{7}})
	srch.roster = append(sl.ids.grow(srch.roster, 1), 7)
	keyLists := func(sl *slab) *freeLists[uint64] { return &sl.keys }
	arrays := noteHeld(nil, "the memberships' keys", st.memberships.keys, keyLists)
	arrays = noteHeld(arrays, "the memberships", st.memberships.vals, func(sl *slab) *freeLists[membership] { return &sl.members })
	arrays = noteHeld(arrays, "the storage landmarks' keys", st.storageLM.keys, keyLists)
	arrays = noteHeld(arrays, "the storage landmarks", st.storageLM.vals, func(sl *slab) *freeLists[lmEntry] { return &sl.marks })
	arrays = noteHeld(arrays, "the search tasks' keys", st.searchLM.keys, keyLists)
	arrays = noteHeld(arrays, "the search tasks", st.searchLM.vals, func(sl *slab) *freeLists[searchTask] { return &sl.tasks })
	arrays = noteHeld(arrays, "the searches' keys", st.searches.keys, keyLists)
	arrays = noteHeld(arrays, "the searches", st.searches.vals, func(sl *slab) *freeLists[searchState] { return &sl.searches })
	for i := range st.memberships.vals {
		arrays = append(arrays, st.memberships.vals[i].heldArrays()...)
	}
	for i := range st.searches.vals {
		arrays = append(arrays, st.searches.vals[i].heldArrays()...)
	}
	p.OnJoin(s.e, slot, 1<<40, s.e.Round())
	for _, a := range arrays {
		if !a.check(t, sl) {
			t.Errorf("%s did not go back to the slab on the churn reset", a.what)
		}
	}
	checkSlabsZero(t, p.Handler)
}

// TestProtocolMemoryLedger: the protocol's row of the memory ledger reads,
// after a store has been maintained past a handover and an item retrieved,
// nonzero bytes in the nodes' arrays and the shards' census, in the slabs'
// free stores and in the item's recorded dispersal and the shards' decode
// scratch, each the arrays' capacities times their element sizes.
func TestProtocolMemoryLedger(t *testing.T) {
	const n = 256
	s := newSim(t, n, churn.ZeroLaw{}, 4, 33)
	s.warm()
	const key = 5
	data := itemBytes(key, 200)
	s.h.RequestStore(s.e, 9, key, data)
	s.run(2 * s.h.P.Period)
	s.h.RequestRetrieve(s.e, 100, key, data)
	if res := await(s, nil, 1); len(res) != 1 || !res[0].Success {
		t.Fatalf("retrieval: %+v", res)
	}
	got := map[string]int64{}
	for _, mv := range s.e.Telemetry().Snapshot() {
		got[mv.Name] = mv.Value
	}

	var tables, free uintptr
	for _, r := range heldRanges(s.h) {
		tables += r.hi - r.lo
	}
	for i := range s.h.slabs {
		rs, _ := s.h.slabs[i].freeRanges()
		for _, r := range rs {
			free += r.hi - r.lo
		}
	}
	// The dispersal the store recorded and a leader candidate's scratch:
	// every piece is capped at its length, so their capacities add up to
	// the block they are cut from.
	var dispersal, scratch uintptr
	for _, d := range s.h.dispersals {
		dispersal += uintptr(cap(d.item)) + uintptr(cap(d.pieces))*unsafe.Sizeof(ida.Piece{})
		for _, p := range d.pieces {
			dispersal += uintptr(cap(p.Data))
		}
	}
	for i := range s.h.slabs {
		scratch += uintptr(cap(s.h.slabs[i].item))
	}
	if len(s.h.dispersals) != 1 || scratch == 0 {
		t.Errorf("%d dispersals recorded and %d scratch bytes, want one and a handover's", len(s.h.dispersals), scratch)
	}
	for _, c := range []struct {
		name string
		want uintptr
	}{
		{"dynp2p_proto_mem_table_bytes", tables},
		{"dynp2p_proto_mem_slab_free_bytes", free},
		{"dynp2p_proto_mem_dispersal_bytes", dispersal + scratch},
	} {
		if c.want == 0 || got[c.name] != int64(c.want) {
			t.Errorf("%s = %d, want %d (> 0)", c.name, got[c.name], c.want)
		}
	}
}

// emptyKeepingRoom drops every array f holds free and its block's rest, and
// keeps the store's own room: every entry goes on the empty chain.
func emptyKeepingRoom[T any](f *freeLists[T]) {
	for i := range f.filed {
		f.filed[i] = filedArray[T]{nil, int32(i)}
	}
	f.heads = [slabClasses]int32{}
	f.empty = int32(len(f.filed))
	f.rest = nil
}

// TestSlabAllocs: new arrays are cut from blocks, so growing many tables
// through one slab costs a block per blockLen elements cut, plus one
// allocation for each array larger than a block — not one per array. Each
// run starts from empty tables and free stores that keep their room, so
// filing an outgrown array allocates nothing. And filing arrays into an
// empty store costs the store's own doublings alone, however many classes
// the arrays spread over.
func TestSlabAllocs(t *testing.T) {
	t.Run("file", testStoreAllocs)
	bk, bv := blockLen[uint64](), blockLen[searchTask]()
	if 4*bv > bk {
		t.Fatalf("blocks of %d keys and %d search tasks: the count below needs 4×%d ≤ %d", bk, bv, bv, bk)
	}
	// small one-entry tables fill whole blocks of keys and of values. The
	// big table grows to 2bv entries: its keys (1+2+…+2bv < 4bv ≤ bk) fit one
	// block; its values up to bv take two (1+…+bv/2 leaves one element,
	// too few for bv), and its last array, of 2bv, is larger than a block.
	small, big := 4*bk, 2*bv
	want := small/bk + small/bv + 1 + 2 + 1
	var sl slab
	tabs := make([]table[searchTask], small+1)
	got := testing.AllocsPerRun(10, func() {
		emptyKeepingRoom(&sl.keys)
		emptyKeepingRoom(&sl.tasks)
		clear(tabs)
		for i := range small {
			tabs[i].put(&sl, uint64(i), searchTask{})
		}
		for k := range big {
			tabs[small].put(&sl, uint64(k), searchTask{})
		}
	})
	if int(got) != want {
		t.Fatalf("growing %d one-entry tables and one of %d entries allocated %v times, want %d: %d blocks of %d keys, %d of %d search tasks, and one array of %d",
			small, big, got, want, small/bk+1, bk, small/bv+2, bv, 2*bv)
	}
}

// testStoreAllocs files arrays of 16 classes, a class at a time, into an
// empty store: its one entry array grows as a slice appended to from nil
// does, which is what it costs. Lists per class would grow 16 chains.
func testStoreAllocs(t *testing.T) {
	const classes, each = 16, 24
	arrays := make([][]uint64, 0, classes*each)
	for c := range classes {
		for range each {
			arrays = append(arrays, make([]uint64, 0, 1<<c))
		}
	}
	want := 0
	var entries []filedArray[uint64]
	for range arrays {
		if len(entries) == cap(entries) {
			want++
		}
		entries = append(entries, filedArray[uint64]{})
	}
	var f freeLists[uint64]
	got := testing.AllocsPerRun(10, func() {
		f = freeLists[uint64]{}
		for _, a := range arrays {
			f.free(a)
		}
	})
	if int(got) != want {
		t.Fatalf("filing %d arrays of %d classes into an empty store allocated %v times, want %d: the doublings of one array of %d entries",
			len(arrays), classes, got, want, len(arrays))
	}
	if msg := checkStore(&f); msg != "" {
		t.Fatal(msg)
	}
}
