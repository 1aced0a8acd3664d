package protocol

import "slices"

// table is the one container of per-node protocol state: parallel key and
// value slices in ascending key order, so a sweep over keys[i]/vals[i] is
// canonical by construction and nothing is sorted to undo a map's order. A
// node takes part in polylog(n) committees, landmark sets and searches at a
// time (measured on the benchmark workloads: under 6 entries on average, 86
// at worst), which is what binary search plus an O(k) insert is sized for.
// Values are held directly: a *V from get, put or add points into vals and
// is valid only until the table's next put, add, del or reset.
//
// A table filled by put holds each key once. One filled by add (a node's
// search tasks) may hold a key several times: its entries are contiguous,
// in the order they were added, and get, put and del act on the first.
type table[V any] struct {
	keys []uint64
	vals []V
}

// get returns key's value, or nil if the table does not hold key.
func (t *table[V]) get(key uint64) *V {
	if i, ok := slices.BinarySearch(t.keys, key); ok {
		return &t.vals[i]
	}
	return nil
}

// put stores v under key, replacing any value already there.
func (t *table[V]) put(key uint64, v V) *V {
	if p := t.get(key); p != nil {
		*p = v
		return p
	}
	return t.add(key, v)
}

// add stores v under key after the entries key already has.
func (t *table[V]) add(key uint64, v V) *V {
	_, i := t.span(key)
	t.keys = slices.Insert(t.keys, i, key)
	t.vals = slices.Insert(t.vals, i, v)
	return &t.vals[i]
}

// span returns the index range [lo, hi) of key's entries.
func (t *table[V]) span(key uint64) (lo, hi int) {
	lo, _ = slices.BinarySearch(t.keys, key)
	hi = lo
	for hi < len(t.keys) && t.keys[hi] == key {
		hi++
	}
	return lo, hi
}

// del removes key if present.
func (t *table[V]) del(key uint64) {
	if i, ok := slices.BinarySearch(t.keys, key); ok {
		t.delAt(i)
	}
}

// delAt removes entry i; a sweep that calls it revisits index i next.
func (t *table[V]) delAt(i int) {
	t.keys = slices.Delete(t.keys, i, i+1)
	t.vals = slices.Delete(t.vals, i, i+1)
}

// reset empties the table in place, keeping both backing arrays and
// dropping every reference the values held.
func (t *table[V]) reset() {
	clear(t.vals)
	t.keys, t.vals = t.keys[:0], t.vals[:0]
}
