package protocol

import (
	"slices"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// cacheSim builds a no-churn sim with the hot-key cache enabled and one
// stored item, settled enough for retrievals to work.
func cacheSim(t *testing.T, n int, ttl int) (*sim, uint64, []byte) {
	t.Helper()
	s := newSimWith(t, n, churn.ZeroLaw{}, 9, func(p *Params) {
		p.CacheCapacity, p.CacheTTL, p.CacheSeedRate = 4, ttl, 1
	})
	s.warm()
	key := uint64(42)
	data := itemBytes(key, 96)
	s.h.RequestStore(s.e, 0, key, data)
	s.run(s.h.P.Period)
	return s, key, data
}

// retrieve runs one retrieval from slot to completion and returns its
// result.
func retrieve(t *testing.T, s *sim, slot int, key uint64, want []byte) SearchResult {
	t.Helper()
	s.h.RequestRetrieve(s.e, slot, key, want)
	for i := 0; i < s.h.P.SearchTTL()+5; i++ {
		s.run(1)
		if rs := s.h.DrainResults(); len(rs) > 0 {
			return rs[0]
		}
	}
	t.Fatalf("retrieval from slot %d never completed", slot)
	return SearchResult{}
}

// TestCacheOwnHitShortCircuits: a node that completed a retrieval holds
// the bytes at depth 0, so its next retrieval of the same key resolves
// from its own cache in the same tick — no committee, no landmarks.
func TestCacheOwnHitShortCircuits(t *testing.T) {
	s, key, data := cacheSim(t, 256, 0)
	first := retrieve(t, s, 100, key, data)
	if !first.Success {
		t.Fatalf("first retrieval failed: %+v", first)
	}
	if !s.h.CachedAt(100, key, s.e.Round()) {
		t.Fatal("completer did not cache the item")
	}
	before := s.h.Counters().CacheHits
	second := retrieve(t, s, 100, key, data)
	if !second.Success || !second.Cached {
		t.Fatalf("second retrieval not cache-served: %+v", second)
	}
	if second.Done != second.Start {
		t.Fatalf("own-cache hit took %d rounds, want 0", second.Done-second.Start)
	}
	if got := s.h.Counters().CacheHits; got != before+1 {
		t.Fatalf("cache hits %d, want %d", got, before+1)
	}
}

// TestCacheReplacedSlotNeverServed: churn invalidation. OnJoin clears
// the replaced slot's cache region, so a newcomer inherits nothing and
// can neither self-serve nor answer inquiries from the departed node's
// entries.
func TestCacheReplacedSlotNeverServed(t *testing.T) {
	s, key, data := cacheSim(t, 256, 0)
	res := retrieve(t, s, 77, key, data)
	if !res.Success {
		t.Fatalf("retrieval failed: %+v", res)
	}
	if !s.h.CachedAt(77, key, s.e.Round()) {
		t.Fatal("completer did not cache the item")
	}
	// Replace the node as the engine would on churn.
	s.h.OnJoin(s.e, 77, 1<<40, s.e.Round())
	if s.h.CachedAt(77, key, s.e.Round()) {
		t.Fatal("replaced slot still reports a cached copy")
	}
	// The newcomer's own retrieval must fall back to the full search
	// path (it can still be served by OTHER nodes' caches, but never
	// from the cleared region in the same tick).
	served := s.h.Counters().CacheServed
	again := retrieve(t, s, 77, key, data)
	if !again.Success {
		t.Fatalf("newcomer retrieval failed: %+v", again)
	}
	if again.Done == again.Start {
		t.Fatal("newcomer resolved in 0 rounds: served from a cleared cache region")
	}
	if again.Cached && s.h.Counters().CacheServed == served {
		t.Fatal("result marked cached but no replica serve happened")
	}
}

// TestCacheTTLExpiryFallsBack: with a tiny TTL every seeded replica is
// expired by the time the second retrieval runs, so the search falls
// back to the full Algorithm-4 path and still succeeds.
func TestCacheTTLExpiryFallsBack(t *testing.T) {
	const ttl = 2
	s, key, data := cacheSim(t, 256, ttl)
	first := retrieve(t, s, 50, key, data)
	if !first.Success {
		t.Fatalf("first retrieval failed: %+v", first)
	}
	// Outlive every replica. The completion's seeds cascade through free
	// slots — at this TTL a slot is free again two rounds on — but a chain is
	// at most cacheMaxDepth installs long, one a round, and the last
	// install lives the TTL. The first search's landmarks went quiet
	// TreeDepth+1 rounds after its result, so nothing touches the replicas
	// in the meantime.
	s.run(cacheMaxDepth + ttl + 1)
	if load := s.h.CacheLoad(s.e.Round()); load != 0 {
		t.Fatalf("%d live replicas after the longest seed chain plus the TTL", load)
	}
	second := retrieve(t, s, 50, key, data)
	if !second.Success {
		t.Fatalf("post-expiry retrieval failed: %+v", second)
	}
	if second.Cached {
		t.Fatalf("post-expiry retrieval was cache-served: %+v", second)
	}
	if s.h.Counters().CacheExpired == 0 {
		t.Fatal("no expired-entry lookups counted")
	}
}

// TestCacheSeedsSpread: completions seed walk-sample sources, and
// first-time installs cascade, so repeated retrievals grow the hot
// key's replica population well beyond the searchers themselves.
func TestCacheSeedsSpread(t *testing.T) {
	s, key, data := cacheSim(t, 256, 0)
	for i := 0; i < 6; i++ {
		if res := retrieve(t, s, 10+17*i, key, data); !res.Success {
			t.Fatalf("retrieval %d failed: %+v", i, res)
		}
	}
	load := s.h.CacheLoad(s.e.Round())
	if load < 20 {
		t.Fatalf("cache load %d after 6 completions, want cascade spread >= 20", load)
	}
	c := s.h.Counters()
	if c.CacheSeeds == 0 || c.CacheInserts == 0 {
		t.Fatalf("no seeding activity: %+v", c)
	}
}

// TestCacheDisabledIsInert: capacity 0 must leave every cache counter
// at zero and still retrieve correctly.
func TestCacheDisabledIsInert(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 9)
	s.warm()
	key := uint64(42)
	data := itemBytes(key, 96)
	s.h.RequestStore(s.e, 0, key, data)
	s.run(s.h.P.Period)
	for i := 0; i < 3; i++ {
		if res := retrieve(t, s, 10+17*i, key, data); !res.Success || res.Cached {
			t.Fatalf("retrieval %d: %+v", i, res)
		}
	}
	c := s.h.Counters()
	if c.CacheHits != 0 || c.CacheServed != 0 || c.CacheSeeds != 0 || c.CacheInserts != 0 {
		t.Fatalf("cache counters nonzero with caching off: %+v", c)
	}
}

// seedProbe is the protocol handler with one measurement: in the first
// round a node receives a cache seed, it times onSeed on that message
// into a free entry before the node handles its inbox.
type seedProbe struct {
	*Handler
	t      *testing.T
	allocs float64
	done   bool
}

func (p *seedProbe) HandleRound(ctx *simnet.Ctx) {
	for i := 0; i < len(ctx.Inbox) && !p.done; i++ {
		m := &ctx.Inbox[i]
		if m.Kind != KindCacheSeed {
			continue
		}
		p.done = true
		st := &p.states[ctx.Slot]
		reg := p.cacheRegion(ctx.Slot)
		saved := slices.Clone(reg)
		// At the depth cap the entry seeds nothing further, so the send
		// buffers are not part of what is measured.
		leaf := *m
		leaf.Aux = cacheMaxDepth
		p.allocs = testing.AllocsPerRun(50, func() {
			clear(reg)
			p.onSeed(ctx, st, &leaf)
		})
		if e := &reg[0]; e.key != m.Item || len(e.data) == 0 || &e.data[0] != &m.Blob()[0] {
			p.t.Errorf("the entry does not keep the seed's blob: %+v", *e)
		}
		copy(reg, saved)
	}
	p.Handler.HandleRound(ctx)
}

// TestCacheInstallAllocatesNothing: a cache seed that lands on a free
// entry allocates nothing — the entry keeps the message's blob.
func TestCacheInstallAllocatesNothing(t *testing.T) {
	const n = 256
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
		AdversarySeed: 3, ProtocolSeed: 4, Strategy: churn.Uniform, Law: churn.ZeroLaw{},
		Workers: 1, // nothing else allocates while the probe measures
	})
	wp := walks.DefaultParams(n)
	soup := walks.NewSoup(e, wp, 1)
	e.AddHook(soup)
	params := DefaultParams(n, wp.WalkLength)
	params.CacheCapacity, params.CacheSeedRate = 2, 1
	p := &seedProbe{Handler: NewHandler(e, soup, params), t: t}
	e.Run(p, wp.WalkLength+3)
	key := uint64(64)
	data := itemBytes(key, 32)
	p.RequestStore(e, 5, key, data)
	e.Run(p, p.P.Period)
	p.RequestRetrieve(e, 100, key, data)
	for r := 0; r < p.P.SearchTTL()+5 && !p.done; r++ {
		e.Run(p, 1)
	}
	if !p.done {
		t.Fatal("no cache seed landed within a search's lifetime")
	}
	if p.allocs != 0 {
		t.Fatalf("a cache install allocated %.0f times", p.allocs)
	}
}

// TestCacheExpiredLookupFreesEntry: a lookup that finds its key's entry
// past the TTL empties the whole entry, so the free slot pins none of the
// item's bytes until an install overwrites it.
func TestCacheExpiredLookupFreesEntry(t *testing.T) {
	const ttl = 2
	s := newSimWith(t, 64, churn.ZeroLaw{}, 9, func(p *Params) { p.CacheCapacity, p.CacheTTL = 2, ttl })
	ctx := &simnet.Ctx{E: s.e, Slot: 3}
	key := uint64(42)
	if e, _ := s.h.cachePut(ctx, key, itemBytes(key, 32), 0); e == nil {
		t.Fatal("the install took no entry")
	}
	ctx.Round = ttl
	if e := s.h.cacheLookup(ctx, key); e != nil {
		t.Fatalf("an entry past its TTL was served: %+v", *e)
	}
	for i, e := range s.h.cacheRegion(ctx.Slot) {
		if e.expiry != 0 || e.key != 0 || e.data != nil || e.used != 0 || e.depth != 0 {
			t.Errorf("entry %d after the expired lookup: %+v, want empty", i, e)
		}
	}
	if got := s.h.Counters().CacheExpired; got != 1 {
		t.Fatalf("%d expired lookups counted, want 1", got)
	}
}
