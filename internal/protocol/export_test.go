package protocol

// IDA reports whether erasure-coded storage is active.
func (h *Handler) IDA() bool { return h.code != nil }

// CachedAt reports whether slot currently holds a live cached copy of
// key (introspection for tests; call between rounds only).
func (h *Handler) CachedAt(slot int, key uint64, round int) bool {
	reg := h.cacheRegion(slot)
	for i := range reg {
		e := &reg[i]
		if e.expiry != 0 && e.key == key && round < int(e.expiry) {
			return true
		}
	}
	return false
}

// CacheLoad returns the number of live cached entries across all slots
// (introspection for tests and experiments; call between rounds only).
func (h *Handler) CacheLoad(round int) int {
	c := 0
	for i := range h.cacheArena {
		e := &h.cacheArena[i]
		if e.expiry != 0 && round < int(e.expiry) {
			c++
		}
	}
	return c
}

// committeeScan is what CommitteeSlots and CopyCount read, found by
// looking at every slot's memberships: the reference the census is tested
// against.
func (h *Handler) committeeScan(key uint64) (slots []int, copies int) {
	for s := range h.states {
		if m := h.states[s].memberships.get(key); m != nil {
			slots = append(slots, s)
			if m.data != nil {
				copies++
			}
		}
	}
	return slots, copies
}
