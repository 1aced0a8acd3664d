package protocol

import (
	"fmt"
	"slices"
	"testing"

	"dynp2p/internal/simnet"
)

// Table scripts are byte strings, two bytes per operation: an opcode and a
// key. Keys are spread over a few bits so scripts collide often.
const (
	opPut = iota
	opGet
	opDel
	opSweep // delete every entry whose value is even, in one pass
	opReset
	opAdd     // a further entry under the key, as the search tasks take them
	opRelease // hand both arrays back to the slab, as a resigning member's count table does
	opCount
)

// tableOffset is what the second table of a script adds to every value the
// first table is given: even, so a sweep drops the same entries of both.
const tableOffset = 1 << 20

// runTableScript drives two tables that share one slab, and a map model,
// through script, op by op; the second table is given every value plus
// tableOffset, so two live tables handed one array would read each other's
// values. After every operation it checks, for both, that the keys ascend,
// that each key's entries are the model's list for it in order, and that
// lookups agree with the model (the model's order is re-established by
// sorting: exactly what the table replaces); and that no array is held by
// both tables or by a table and the slab's free lists. A key holds one
// entry until opAdd gives it more; get, put and del act on its first.
func runTableScript(t *testing.T, script []byte) table[int] {
	t.Helper()
	var sl slab
	var tabs [2]table[int]
	model := map[uint64][]int{}
	for pc := 0; pc+1 < len(script); pc += 2 {
		op, key, v := script[pc]%opCount, uint64(script[pc+1]%32), pc/2
		for j := range tabs {
			tab, w := &tabs[j], v+j*tableOffset
			switch op {
			case opPut:
				if p := tab.put(&sl, key, w); *p != w {
					t.Fatalf("op %d: put(%d) returned a pointer to %d", v, key, *p)
				}
			case opGet: // handlers update entries through the pointer get returns
				if p := tab.get(key); p != nil {
					*p = w
				}
			case opDel:
				tab.del(key)
			case opSweep:
				tab.sweep(func(v *int) bool { return *v%2 == 0 })
			case opReset:
				tab.reset()
			case opAdd:
				if p := tab.add(&sl, key, w); *p != w {
					t.Fatalf("op %d: add(%d) returned a pointer to %d", v, key, *p)
				}
			case opRelease:
				tab.release(&sl)
			}
		}
		switch op {
		case opPut:
			if vs := model[key]; len(vs) > 0 {
				vs[0] = v
			} else {
				model[key] = []int{v}
			}
		case opGet:
			if vs := model[key]; len(vs) > 0 {
				vs[0] = v
			}
		case opDel:
			if vs := model[key]; len(vs) > 1 {
				model[key] = vs[1:]
			} else {
				delete(model, key)
			}
		case opSweep:
			for k, vs := range model {
				if vs = slices.DeleteFunc(vs, func(v int) bool { return v%2 == 0 }); len(vs) > 0 {
					model[k] = vs
				} else {
					delete(model, k)
				}
			}
		case opReset, opRelease:
			clear(model)
		case opAdd:
			model[key] = append(model[key], v)
		}
		checkArraysApart(t, v, &sl, tabs[:])
		for j := range tabs {
			checkTable(t, v, &tabs[j], model, j*tableOffset)
		}
	}
	return tabs[0]
}

// checkTable checks tab against model, whose values tab holds plus offset.
func checkTable(t *testing.T, op int, tab *table[int], model map[uint64][]int, offset int) {
	t.Helper()
	if len(tab.vals) != len(tab.keys) {
		t.Fatalf("op %d: %d values for %d keys", op, len(tab.vals), len(tab.keys))
	}
	if !slices.IsSorted(tab.keys) {
		t.Fatalf("op %d: keys not ascending: %v", op, tab.keys)
	}
	n := 0
	for k := uint64(0); k < 32; k++ {
		vs := slices.Clone(model[k])
		for i := range vs {
			vs[i] += offset
		}
		lo, hi := tab.span(k)
		if !slices.Equal(tab.vals[lo:hi], vs) {
			t.Fatalf("op %d: key %d holds %v, model has %v", op, k, tab.vals[lo:hi], vs)
		}
		if p := tab.get(k); (p != nil) != (len(vs) > 0) || p != nil && *p != vs[0] {
			t.Fatalf("op %d: get(%d) = %v, model has %v", op, k, p, vs)
		}
		n += len(vs)
	}
	if len(tab.keys) != n {
		t.Fatalf("op %d: %d entries, model has %d", op, len(tab.keys), n)
	}
}

// checkArraysApart fails if two of the tables' arrays, or a table's array
// and one the slab holds free or the unused rest of its block, share an
// element, if anything the slab holds free is not zero, or if a free
// store's links are broken (checkStore).
func checkArraysApart(t *testing.T, op int, sl *slab, tabs []table[int]) {
	t.Helper()
	rs, zero := sl.freeRanges()
	for j := range tabs {
		rs = append(rs, rangeOf(tabs[j].keys, fmt.Sprintf("table %d's keys", j)), rangeOf(tabs[j].vals, fmt.Sprintf("table %d's values", j)))
	}
	if msg := overlap(rs); msg != "" {
		t.Fatalf("op %d: %s", op, msg)
	}
	if !zero {
		t.Fatalf("op %d: the slab holds a free array or a block's rest that is not cleared", op)
	}
	if msg := sl.checkStores(); msg != "" {
		t.Fatalf("op %d: %s", op, msg)
	}
}

func TestTable(t *testing.T) {
	for _, c := range []struct {
		name   string
		script []byte
		keys   []uint64
	}{
		{"empty", nil, nil},
		{"descending puts land ascending", []byte{opPut, 9, opPut, 5, opPut, 1}, []uint64{1, 5, 9}},
		{"put replaces", []byte{opPut, 4, opPut, 4, opPut, 4}, []uint64{4}},
		{"del absent is a no-op", []byte{opPut, 3, opDel, 7, opDel, 0}, []uint64{3}},
		{"del first, middle, last", []byte{opPut, 1, opPut, 2, opPut, 3, opPut, 4, opPut, 5, opDel, 1, opDel, 3, opDel, 5}, []uint64{2, 4}},
		{"sweep drops adjacent entries", []byte{opPut, 1, opPut, 2, opGet, 2, opPut, 3, opPut, 4, opSweep, 0}, []uint64{3}},
		{"reset then reuse", []byte{opPut, 8, opPut, 2, opReset, 0, opGet, 8, opPut, 6, opPut, 3}, []uint64{3, 6}},
		{"adds keep arrival order", []byte{opAdd, 5, opAdd, 2, opAdd, 5, opPut, 9, opAdd, 5, opAdd, 2}, []uint64{2, 2, 5, 5, 5, 9}},
		{"del, put and get take a key's first", []byte{opAdd, 4, opAdd, 4, opAdd, 4, opDel, 4, opPut, 4, opGet, 4, opAdd, 1}, []uint64{1, 4, 4}},
		{"sweep inside a run", []byte{opAdd, 7, opAdd, 7, opAdd, 7, opAdd, 7, opSweep, 0, opAdd, 7}, []uint64{7, 7, 7}},
		{"release then regrow from the slab", []byte{opPut, 1, opPut, 2, opPut, 3, opRelease, 0, opPut, 4, opPut, 5, opPut, 6, opPut, 7, opPut, 8}, []uint64{4, 5, 6, 7, 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if tab := runTableScript(t, c.script); !slices.Equal(tab.keys, c.keys) {
				t.Fatalf("final keys %v, want %v", tab.keys, c.keys)
			}
		})
	}
}

// TestTableResetDropsReferences pins what makes reusing a count table in
// place safe for the garbage collector (a membership's, each epoch and on
// a re-invite): reset keeps the backing arrays but zeroes every value, so
// nothing of the old epoch's is reachable through them.
func TestTableResetDropsReferences(t *testing.T) {
	var sl slab
	var tab table[lmEntry]
	tab.put(&sl, 1, lmEntry{roster: []simnet.NodeID{7}})
	tab.put(&sl, 2, lmEntry{roster: []simnet.NodeID{8}})
	old := tab.vals
	tab.reset()
	if len(tab.keys) != 0 || len(tab.vals) != 0 || cap(tab.vals) != cap(old) {
		t.Fatalf("reset left len %d/%d cap %d, want 0/0 cap %d", len(tab.keys), len(tab.vals), cap(tab.vals), cap(old))
	}
	for i, v := range old {
		if v.roster != nil {
			t.Fatalf("reset left value %d reachable: %v", i, v.roster)
		}
	}
}

func FuzzTable(f *testing.F) {
	f.Add([]byte{opPut, 9, opPut, 5, opPut, 1, opDel, 5, opSweep, 0, opPut, 7, opReset, 0, opPut, 2})
	f.Add([]byte{opPut, 0, opPut, 31, opPut, 0, opDel, 31, opDel, 31, opGet, 3})
	f.Add([]byte{opAdd, 6, opAdd, 3, opAdd, 6, opDel, 6, opAdd, 6, opPut, 6, opSweep, 0, opAdd, 3, opGet, 3, opReset, 0, opAdd, 6})
	f.Add([]byte{opAdd, 0, opAdd, 31, opAdd, 0, opAdd, 0, opDel, 0, opDel, 0, opDel, 0, opAdd, 31})
	f.Add([]byte{opPut, 4, opPut, 9, opPut, 1, opRelease, 0, opAdd, 3, opAdd, 3, opSweep, 0, opPut, 2, opPut, 8, opRelease, 0, opPut, 5})
	f.Fuzz(func(t *testing.T, script []byte) { runTableScript(t, script) })
}
