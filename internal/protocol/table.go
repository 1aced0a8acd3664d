package protocol

import "slices"

// table is the one container of per-node protocol state: parallel key and
// value slices in ascending key order, so a sweep over keys[i]/vals[i] is
// canonical by construction and nothing is sorted to undo a map's order. A
// node takes part in polylog(n) committees, landmark sets and searches at a
// time (measured on the benchmark workloads: under 6 entries on average, 86
// at worst), which is what binary search plus an O(k) insert is sized for.
// Values are held directly: a *V from get, put or add points into vals and
// is valid only until the table's next put, add, del, sweep or reset.
// Both arrays grow together, to the next power of two, through the slot's
// shard slab (slab.go), cut from its blocks and the outgrown pair handed back.
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

// put stores v under key, replacing any value already there; sl is the
// slot's shard slab.
func (t *table[V]) put(sl *slab, key uint64, v V) *V {
	if p := t.get(key); p != nil {
		*p = v
		return p
	}
	return t.add(sl, key, v)
}

// add stores v under key after the entries key already has; sl is the
// slot's shard slab.
func (t *table[V]) add(sl *slab, key uint64, v V) *V {
	_, i := t.span(key)
	if len(t.keys) == cap(t.keys) {
		t.keys = sl.keys.grow(t.keys, 1)
		t.vals = valsOf[V](sl).grow(t.vals, 1)
	}
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

// delAt removes entry i.
func (t *table[V]) delAt(i int) {
	t.keys = slices.Delete(t.keys, i, i+1)
	t.vals = slices.Delete(t.vals, i, i+1)
}

// sweep removes every entry drop reports true for, in one pass that keeps
// the others in order, and clears the vacated tail.
func (t *table[V]) sweep(drop func(*V) bool) {
	j := 0
	for i := range t.vals {
		if drop(&t.vals[i]) {
			continue
		}
		t.keys[j], t.vals[j] = t.keys[i], t.vals[i]
		j++
	}
	clear(t.vals[j:])
	t.keys, t.vals = t.keys[:j], t.vals[:j]
}

// reset empties the table in place, keeping both backing arrays and
// dropping every reference the values held.
func (t *table[V]) reset() {
	clear(t.vals)
	t.keys, t.vals = t.keys[:0], t.vals[:0]
}

// release hands both backing arrays back to sl, leaving the table empty
// and unbacked.
func (t *table[V]) release(sl *slab) {
	sl.keys.free(t.keys)
	valsOf[V](sl).free(t.vals)
	t.keys, t.vals = nil, nil
}

// bytes returns the bytes the table's two arrays hold.
func (t *table[V]) bytes() int { return capBytes(t.keys) + capBytes(t.vals) }
