package protocol

import (
	"bytes"

	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
)

// Hot-key caching (DESIGN.md §10), after "A Random Structure for Optimum
// Cache Size DHT" (Sarshar & Roychowdhury): a node that completes a
// retrieval — or serves one from its cache — keeps the reconstructed
// bytes and pushes replicas to the sources of this round's walk samples,
// gated by a pure hash so placement is worker-count deterministic. A
// cached node answers a search landmark's inquiry with the bytes
// directly (KindCacheData), short-circuiting the roster/fetch/
// reconstruct leg of Algorithm 4; the searcher's own cache
// short-circuits committee formation entirely. Seeding fires on
// completion events and cascades through first-time installs (see
// onSeed) — never on serves — so a key's replica population grows in
// proportion to its completed request volume, which is exactly the
// traffic-proportional random replication the reference paper shows
// yields polylog expected search time. (Seeding on serves was measured
// first: Algorithm 4's inquiry fan-out is Θ(√n) messages for every round
// a search runs — and ran on for Θ(T) rounds after it, until KindSDone —
// so serve-triggered seeding saturates the whole network off a handful
// of retrievals.)
//
// Entries live in one flat arena of n·capacity slots; slot s owns the
// region [s·cap, (s+1)·cap). OnJoin clears the replaced slot's region,
// so churn invalidation needs no extra machinery: a newcomer inherits
// nothing, exactly like the rest of nodeState. Eviction is LRU by
// last-touched round with index order as the tie-break — both inputs
// are round-derived, never arrival-order-derived, so eviction is
// deterministic too.

// cacheEntry is one cached item. expiry == 0 marks an empty slot; a
// non-empty entry is live while round < expiry and merely expired (data
// intact, revivable by a same-key refresh) afterwards. data is the array
// the entry was installed from, shared with its sender and every other
// holder and never written (Ctx.SetPayload).
type cacheEntry struct {
	key    uint64
	data   []byte
	expiry int32
	used   int32 // last round the entry was hit, served, or written
	served int32 // last round the entry answered an inquiry
	depth  uint8 // seed-hops from the completing searcher (0 = completer)
}

// cacheMaxDepth caps the seed-hop lineage an entry can record; entries
// at the cap stop re-seeding, bounding any one completion's cascade at
// cacheSeedFanout^cacheMaxDepth installs (a backstop — in practice the
// refresh rule kills chains long before the cap).
const cacheMaxDepth = 16

// cacheSeedFanout is the per-event replica budget: at most this many of
// the round's walk samples receive a seeded copy (each still gated by
// CacheSeedRate). It is also the cascade branching factor, so it sets
// the self-limiting coverage ceiling ≈ 1 − 1/(fanout·rate); measured
// equilibrium sits well below that because synchronized cascade waves
// collide (a node sourcing several walks is seeded by several cascaders
// in the same round, and only the first install propagates).
const cacheSeedFanout = 6

// cacheRegion returns the slot's private window of the arena.
func (h *Handler) cacheRegion(slot int) []cacheEntry {
	c := h.P.CacheCapacity
	return h.cacheArena[slot*c : (slot+1)*c]
}

// cacheEnabled reports whether the cache path is active.
func (h *Handler) cacheEnabled() bool { return h.P.CacheCapacity > 0 }

const defaultCacheSeedRate = 0.5

// cacheClearSlot invalidates a replaced slot's entire region (the
// newcomer knows nothing).
func (h *Handler) cacheClearSlot(slot int) { clear(h.cacheRegion(slot)) }

// cacheLookup returns the slot's live entry for key, refreshing its LRU
// stamp, or nil. A TTL-expired match is emptied, bytes and all, and
// counted, so the search falls back to the full Algorithm-4 path.
func (h *Handler) cacheLookup(ctx *simnet.Ctx, key uint64) *cacheEntry {
	if !h.cacheEnabled() {
		return nil
	}
	reg := h.cacheRegion(ctx.Slot)
	for i := range reg {
		e := &reg[i]
		if e.expiry == 0 || e.key != key {
			continue
		}
		if int(e.expiry) <= ctx.Round {
			*e = cacheEntry{}
			h.ctr.cacheExpired.Inc(ctx.Shard)
			return nil
		}
		e.used = int32(ctx.Round)
		return e
	}
	return nil
}

// cachePut installs (key, data) in the node's region, evicting the
// least-recently-used entry if no slot is free. The entry keeps data
// itself, never copied and never written again: a member's sent copy, a
// cached reply or seed, or the searcher's decoded item. A same-key
// refresh only bumps the clocks: item bytes are immutable per key. The
// returned flag reports whether the install took a FREE slot (empty or
// TTL-expired): only those cascade further seeds. A refresh does not
// cascade (the territory is already covered), and neither does an
// install that evicted a live entry — under capacity contention an
// evicted key's next seed would register as "new" again, and cascading
// on it turns two keys fighting over full caches into a permanent
// seed storm. Free-slot-only cascades keep seeding self-limiting on
// both axes: coverage (refreshes die out) and capacity (contended
// caches absorb seeds silently).
func (h *Handler) cachePut(ctx *simnet.Ctx, key uint64, data []byte, depth uint8) (*cacheEntry, bool) {
	if !h.cacheEnabled() || len(data) == 0 {
		return nil, false
	}
	round := int32(ctx.Round)
	reg := h.cacheRegion(ctx.Slot)
	victim := &reg[0]
	for i := range reg {
		e := &reg[i]
		if e.expiry != 0 && e.key == key {
			e.expiry = round + int32(h.P.CacheTTL)
			e.used = round
			if depth < e.depth {
				e.depth = depth
			}
			return e, false
		}
		if cacheRank(e, round) < cacheRank(victim, round) {
			victim = e
		}
	}
	free := victim.expiry == 0 || int(victim.expiry) <= ctx.Round
	if !free {
		h.ctr.cacheEvictions.Inc(ctx.Shard)
	}
	*victim = cacheEntry{key: key, data: data, expiry: round + int32(h.P.CacheTTL), used: round, depth: depth}
	h.ctr.cacheInserts.Inc(ctx.Shard)
	return victim, free
}

// cacheAdmit is the completer's path: install the verified bytes at
// depth 0 and seed replicas outward (refresh or not — a completion is
// fresh demand, so it always re-seeds).
func (h *Handler) cacheAdmit(ctx *simnet.Ctx, st *nodeState, key uint64, data []byte, trace uint64) {
	if e, _ := h.cachePut(ctx, key, data, 0); e != nil {
		h.cacheSeed(ctx, st, e, trace)
	}
}

// cacheSeed pushes replicas of a cached entry to up to cacheSeedFanout
// of this round's walk-sample sources. Each send is gated by a pure
// hash of (protocol seed, key, slot, round, sample index) against
// CacheSeedRate — deterministic replica placement along near-random
// walk endpoints, the reference paper's replication rule. Entries at
// cacheMaxDepth stop propagating.
func (h *Handler) cacheSeed(ctx *simnet.Ctx, st *nodeState, e *cacheEntry, trace uint64) {
	if e.depth >= cacheMaxDepth {
		return
	}
	samples := h.soup.Samples(ctx.Slot)
	sent := 0
	for i := 0; i < len(samples) && sent < cacheSeedFanout; i++ {
		s := samples[i]
		if s.Src == st.id {
			continue
		}
		g := rng.Hash(h.seed, e.key, uint64(ctx.Slot), uint64(ctx.Round), uint64(i))
		if rng.Unit(g) >= h.P.CacheSeedRate {
			continue
		}
		m := ctx.SendMsg(s.Src, KindCacheSeed)
		m.Item, m.Aux, m.Trace = e.key, uint64(e.depth)+1, trace
		ctx.SetPayload(m, nil, e.data)
		sent++
	}
}

// cacheServe answers an inquiry straight from the cache: the item bytes
// go to the searcher, short-circuiting found/fetch/reconstruct. Serving
// refreshes the entry's LRU stamp (via the lookup) but deliberately does
// not seed — inquiry volume is not request volume; see the package-top
// comment. The completing searcher seeds on receipt instead.
func (h *Handler) cacheServe(ctx *simnet.Ctx, e *cacheEntry, searcher simnet.NodeID, trace uint64) {
	// At most one serve per entry per round: a hot key's landmarks
	// inquire many nodes per round and several inquiries can land here
	// in the same tick; one reply resolves the search just as fast.
	if e.served == int32(ctx.Round) {
		return
	}
	e.served = int32(ctx.Round)
	m := ctx.SendMsg(searcher, KindCacheData)
	m.Item, m.Aux, m.Trace = e.key, uint64(e.depth), trace
	ctx.SetPayload(m, nil, e.data)
	h.ctr.cacheHitsByHop.Observe(ctx.Shard, int64(e.depth))
}

// serveOwnCacheHit resolves a pending retrieval from the node's own
// cache: no committee, no landmarks — the operation starts and finishes
// in the same tick.
func (h *Handler) serveOwnCacheHit(ctx *simnet.Ctx, st *nodeState, op pendingOp, e *cacheEntry) {
	trace := h.sampleOp(ctx, st, op)
	ok := op.data == nil || bytes.Equal(e.data, op.data)
	h.ctr.cacheHits.Inc(ctx.Shard)
	h.ctr.cacheHitsByHop.Observe(ctx.Shard, int64(e.depth))
	srch := &searchState{
		key: op.key, start: op.start,
		found: ctx.Round, want: op.data,
		trace: trace, cached: true,
	}
	h.finishSearch(ctx, st, srch, ctx.Round, ok, len(e.data))
	h.cacheSeed(ctx, st, e, trace)
}

// onCached completes a retrieval with a cache-served reply.
func (h *Handler) onCached(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	srch := st.searches.get(msg.Item)
	if srch == nil {
		return
	}
	if srch.found < 0 {
		srch.found = ctx.Round
	}
	srch.cached = true
	h.ctr.cacheHits.Inc(ctx.Shard)
	h.complete(ctx, st, srch, msg.Blob())
}

// onSeed installs a walk-seeded replica. The receiver was a near-random
// walk endpoint; it accepts unconditionally (the sender already rolled
// the placement hash) at the sender's depth + 1. An install into a free
// slot cascades onward; a refresh or a live eviction does not (see
// cachePut). That makes the replica population logistic: while a key is
// under-replicated most seeds land in free territory and the chain
// branches at fanout×rate, but as coverage approaches 1 − 1/(fanout×
// rate) — or as caches fill up — chains die out, with the depth cap
// bounding any one chain at fanout^cacheMaxDepth installs. Churn prunes
// replicas for free (the replaced slot's region is cleared), so
// sustained coverage still requires sustained completions —
// demand-proportional replication, never an unbounded epidemic.
func (h *Handler) onSeed(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	if !h.cacheEnabled() || msg.Aux > cacheMaxDepth {
		return
	}
	if e, cascade := h.cachePut(ctx, msg.Item, msg.Blob(), uint8(msg.Aux)); cascade {
		h.cacheSeed(ctx, st, e, msg.Trace)
	}
}

// cacheRank orders eviction candidates: empty slots first, then expired
// entries (oldest-used first), then live entries by LRU stamp. The
// strict-less scan keeps the lowest index on ties.
func cacheRank(e *cacheEntry, round int32) int64 {
	switch {
	case e.expiry == 0:
		return -1 << 62
	case e.expiry <= round:
		return -1<<61 + int64(e.used)
	default:
		return int64(e.used)
	}
}
