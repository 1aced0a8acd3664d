package protocol

import (
	"maps"
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
	opCount
)

// runTableScript drives a table and a map model through script and checks
// after every operation that the table's keys are strictly ascending and
// that lookups and in-order iteration agree with the model (the model's
// order is re-established by sorting: exactly what the table replaces).
func runTableScript(t *testing.T, script []byte) table[int] {
	t.Helper()
	var tab table[int]
	model := map[uint64]int{}
	for pc := 0; pc+1 < len(script); pc += 2 {
		op, key := script[pc]%opCount, uint64(script[pc+1]%32)
		switch op {
		case opPut:
			if p := tab.put(key, pc); *p != pc {
				t.Fatalf("op %d: put(%d) returned a pointer to %d, want %d", pc/2, key, *p, pc)
			}
			model[key] = pc
		case opGet: // handlers update entries through the pointer get returns
			if p := tab.get(key); p != nil {
				*p, model[key] = pc, pc
			}
		case opDel:
			tab.del(key)
			delete(model, key)
		case opSweep:
			for i := 0; i < len(tab.vals); i++ {
				if tab.vals[i]%2 == 0 {
					tab.delAt(i)
					i--
				}
			}
			maps.DeleteFunc(model, func(_ uint64, v int) bool { return v%2 == 0 })
		case opReset:
			tab.reset()
			clear(model)
		}
		want := make([]uint64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		if !slices.Equal(tab.keys, want) {
			t.Fatalf("op %d: keys %v, model %v", pc/2, tab.keys, want)
		}
		if len(tab.vals) != len(tab.keys) {
			t.Fatalf("op %d: %d values for %d keys", pc/2, len(tab.vals), len(tab.keys))
		}
		for i, k := range tab.keys {
			if i > 0 && tab.keys[i-1] >= k {
				t.Fatalf("op %d: keys not strictly ascending: %v", pc/2, tab.keys)
			}
			if tab.vals[i] != model[k] {
				t.Fatalf("op %d: vals[%d] = %d under key %d, model has %d", pc/2, i, tab.vals[i], k, model[k])
			}
		}
		for k := uint64(0); k < 32; k++ {
			v, ok := model[k]
			if p := tab.get(k); (p != nil) != ok || ok && *p != v {
				t.Fatalf("op %d: get(%d) = %v, model has (%d, %v)", pc/2, k, p, v, ok)
			}
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
		{"sweep drops adjacent entries", []byte{opPut, 1, opPut, 2, opPut, 3, opSweep, 0}, nil},
		{"reset then reuse", []byte{opPut, 8, opPut, 2, opReset, 0, opGet, 8, opPut, 6, opPut, 3}, []uint64{3, 6}},
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
	f.Fuzz(func(t *testing.T, script []byte) { runTableScript(t, script) })
}
