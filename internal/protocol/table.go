package protocol

import "slices"

// table is the one container of per-node protocol state: parallel key and
// value slices in ascending key order, so a sweep over keys[i]/vals[i] is
// canonical by construction and nothing is sorted to undo a map's order. A
// node takes part in polylog(n) committees, landmark sets and searches at a
// time (measured on the benchmark workloads: under 6 entries on average, 84
// at worst), which is what binary search plus an O(k) insert is sized for.
// Values are held directly: a *V from get or put points into vals and is
// valid only until the table's next put, del or reset.
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
	i, ok := slices.BinarySearch(t.keys, key)
	if ok {
		t.vals[i] = v
	} else {
		t.keys = slices.Insert(t.keys, i, key)
		t.vals = slices.Insert(t.vals, i, v)
	}
	return &t.vals[i]
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
