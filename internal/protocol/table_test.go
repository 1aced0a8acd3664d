package protocol

import (
	"slices"
	"testing"
)

// Table scripts are byte strings, two bytes per operation: an opcode and a
// key. Keys are spread over a few bits so scripts collide often.
const (
	opPut = iota
	opGet
	opDel
	opSweep // delete every entry whose value is even, with the ticks' delAt/i-- idiom
	opReset
	opAdd // a further entry under the key, as the search tasks take them
	opCount
)

// runTableScript drives a table and a map model through script and checks
// after every operation that the table's keys ascend, that each key's
// entries are the model's list for it in order, and that lookups agree
// with the model (the model's order is re-established by sorting: exactly
// what the table replaces). A key holds one entry until opAdd gives it
// more; get, put and del act on its first.
func runTableScript(t *testing.T, script []byte) table[int] {
	t.Helper()
	var tab table[int]
	model := map[uint64][]int{}
	for pc := 0; pc+1 < len(script); pc += 2 {
		op, key, v := script[pc]%opCount, uint64(script[pc+1]%32), pc/2
		switch op {
		case opPut:
			if p := tab.put(key, v); *p != v {
				t.Fatalf("op %d: put(%d) returned a pointer to %d", v, key, *p)
			}
			if vs := model[key]; len(vs) > 0 {
				vs[0] = v
			} else {
				model[key] = []int{v}
			}
		case opGet: // handlers update entries through the pointer get returns
			if p := tab.get(key); p != nil {
				*p, model[key][0] = v, v
			}
		case opDel:
			tab.del(key)
			if vs := model[key]; len(vs) > 1 {
				model[key] = vs[1:]
			} else {
				delete(model, key)
			}
		case opSweep:
			for i := 0; i < len(tab.vals); i++ {
				if tab.vals[i]%2 == 0 {
					tab.delAt(i)
					i--
				}
			}
			for k, vs := range model {
				if vs = slices.DeleteFunc(vs, func(v int) bool { return v%2 == 0 }); len(vs) > 0 {
					model[k] = vs
				} else {
					delete(model, k)
				}
			}
		case opReset:
			tab.reset()
			clear(model)
		case opAdd:
			if p := tab.add(key, v); *p != v {
				t.Fatalf("op %d: add(%d) returned a pointer to %d", v, key, *p)
			}
			model[key] = append(model[key], v)
		}
		if len(tab.vals) != len(tab.keys) {
			t.Fatalf("op %d: %d values for %d keys", v, len(tab.vals), len(tab.keys))
		}
		if !slices.IsSorted(tab.keys) {
			t.Fatalf("op %d: keys not ascending: %v", v, tab.keys)
		}
		n := 0
		for k := uint64(0); k < 32; k++ {
			vs := model[k]
			lo, hi := tab.span(k)
			if !slices.Equal(tab.vals[lo:hi], vs) {
				t.Fatalf("op %d: key %d holds %v, model has %v", v, k, tab.vals[lo:hi], vs)
			}
			if p := tab.get(k); (p != nil) != (len(vs) > 0) || p != nil && *p != vs[0] {
				t.Fatalf("op %d: get(%d) = %v, model has %v", v, k, p, vs)
			}
			n += len(vs)
		}
		if len(tab.keys) != n {
			t.Fatalf("op %d: %d entries, model has %d", v, len(tab.keys), n)
		}
	}
	return tab
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
	} {
		t.Run(c.name, func(t *testing.T) {
			if tab := runTableScript(t, c.script); !slices.Equal(tab.keys, c.keys) {
				t.Fatalf("final keys %v, want %v", tab.keys, c.keys)
			}
		})
	}
}

// TestTableResetDropsReferences pins what makes the in-place OnJoin safe for
// the garbage collector and for the newcomer: reset keeps the backing
// arrays but zeroes every value, so nothing of the old occupant's is
// reachable through them.
func TestTableResetDropsReferences(t *testing.T) {
	var tab table[[]byte]
	tab.put(1, []byte("a"))
	tab.put(2, []byte("b"))
	old := tab.vals
	tab.reset()
	if len(tab.keys) != 0 || len(tab.vals) != 0 || cap(tab.vals) != cap(old) {
		t.Fatalf("reset left len %d/%d cap %d, want 0/0 cap %d", len(tab.keys), len(tab.vals), cap(tab.vals), cap(old))
	}
	for i, v := range old {
		if v != nil {
			t.Fatalf("reset left value %d reachable: %q", i, v)
		}
	}
}

func FuzzTable(f *testing.F) {
	f.Add([]byte{opPut, 9, opPut, 5, opPut, 1, opDel, 5, opSweep, 0, opPut, 7, opReset, 0, opPut, 2})
	f.Add([]byte{opPut, 0, opPut, 31, opPut, 0, opDel, 31, opDel, 31, opGet, 3})
	f.Add([]byte{opAdd, 6, opAdd, 3, opAdd, 6, opDel, 6, opAdd, 6, opPut, 6, opSweep, 0, opAdd, 3, opGet, 3, opReset, 0, opAdd, 6})
	f.Add([]byte{opAdd, 0, opAdd, 31, opAdd, 0, opAdd, 0, opDel, 0, opDel, 0, opDel, 0, opAdd, 31})
	f.Fuzz(func(t *testing.T, script []byte) { runTableScript(t, script) })
}
