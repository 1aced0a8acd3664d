package protocol

import (
	"cmp"
	"slices"
	"sync"

	"dynp2p/internal/ida"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// Handler is the protocol stack: a simnet.Handler that runs committees,
// landmark trees, storage, and retrieval for every node in the network.
// Per-node state is kept per slot; HandleRound runs concurrently across
// slots but each invocation touches only its own slot's and shard's state,
// immutable configuration, sharded telemetry cells and what mu guards.
type Handler struct {
	P    Params
	e    *simnet.Engine // counts every send by kind (Sent, Counters)
	soup *walks.Soup
	code *ida.Coder // nil in replication mode

	states []nodeState
	slabs  []slab // one per engine shard, grown from by its slots' protocol arrays (slab.go)
	// census is one table per engine shard: item key -> how many of the
	// shard's slots hold a membership of its committee, no key at 0. A
	// shard's table changes only where one of its slots joins or leaves a
	// committee (enlist, delist), in its handler phase or in churn.
	census []table[int]

	// Hot-key cache (cache.go): one flat arena sized once from
	// Params.CacheCapacity, slot s owning the region [s·cap, (s+1)·cap).
	// seed keys the deterministic replica-placement hash.
	seed       uint64
	cacheArena []cacheEntry

	mu         sync.Mutex
	results    []SearchResult
	dispersals map[uint64]dispersal // IDA mode: each stored key's last dispersal (disperse)

	ctr counters
}

// counters are the handler's event counters: registry-backed sharded
// cells. Every update site runs inside HandleRound and adds to the
// node's shard (ctx.Shard), so the hot path takes no atomics and the
// merged totals are identical at any worker count.
type counters struct {
	handovers         telemetry.Counter
	fallbackHandovers telemetry.Counter
	resignations      telemetry.Counter
	committeeCreated  telemetry.Counter
	waves             telemetry.Counter
	inquiryPairs      telemetry.Counter
	foundRepeats      telemetry.Counter
	idaLost           telemetry.Counter
	idaRecoded        telemetry.Counter
	cacheHits         telemetry.Counter
	cacheInserts      telemetry.Counter
	cacheEvictions    telemetry.Counter
	cacheExpired      telemetry.Counter
	cacheHitsByHop    telemetry.Histogram
	roundsCached      telemetry.Histogram
	roundsUncached    telemetry.Histogram
}

func newCounters(reg *telemetry.Registry) counters {
	return counters{
		handovers:         reg.Counter("dynp2p_proto_handovers_total", "epoch handovers completed"),
		fallbackHandovers: reg.Counter("dynp2p_proto_fallback_handovers_total", "handovers performed by a non-primary candidate"),
		resignations:      reg.Counter("dynp2p_proto_resignations_total", "members resigned after a handover"),
		committeeCreated:  reg.Counter("dynp2p_proto_committees_created_total", "committees created by store/retrieve requests"),
		waves:             reg.Counter("dynp2p_proto_waves_total", "landmark waves started by storage members and searchers"),
		inquiryPairs:      reg.Counter("dynp2p_proto_inquiry_pairs_total", "landmark inquiries sent that name a second searcher"),
		foundRepeats:      reg.Counter("dynp2p_proto_found_repeats_total", "inquiries left unanswered: the landmark already told that searcher this round"),
		idaLost:           reg.Counter("dynp2p_proto_ida_lost_total", "handovers where fewer than K pieces survived"),
		idaRecoded:        reg.Counter("dynp2p_proto_ida_recoded_total", "handovers that reconstructed and re-dispersed"),
		cacheHits:         reg.Counter("dynp2p_cache_hits_total", "retrievals resolved by a cached copy (own-node or served)"),
		cacheInserts:      reg.Counter("dynp2p_cache_inserts_total", "cache entries written (excluding same-key refreshes)"),
		cacheEvictions:    reg.Counter("dynp2p_cache_evictions_total", "live cache entries evicted by LRU pressure"),
		cacheExpired:      reg.Counter("dynp2p_cache_expired_total", "cache lookups that found only a TTL-expired entry"),
		cacheHitsByHop:    reg.Histogram("dynp2p_cache_hits_by_hop", "seed depth of the replica resolving each cache hit"),
		roundsCached:      reg.Histogram("dynp2p_search_rounds_cached", "rounds to resolve for cache-served retrievals"),
		roundsUncached:    reg.Histogram("dynp2p_search_rounds_uncached", "rounds to resolve for committee-served retrievals"),
	}
}

// Counters is a plain snapshot of the handler's event counters.
type Counters struct {
	InvitesSent       int64 // committee invitations sent
	Handovers         int64 // epoch handovers completed (by any candidate)
	FallbackHandovers int64 // handovers performed by a non-primary candidate
	Resignations      int64 // members resigned after a handover
	CommitteesCreated int64 // committees created by Store/Retrieve requests
	Waves             int64 // landmark waves started by storage members and searchers
	GrowSent          int64 // tree-growth messages sent
	Inquiries         int64 // landmark inquiries sent
	InquiryPairs      int64 // inquiries naming a second searcher (searchers asked = Inquiries + InquiryPairs)
	Dones             int64 // search-ended notices sent, forwarded ones included
	Founds            int64 // positive inquiry responses sent
	FoundRepeats      int64 // inquiries unanswered: the landmark already told that searcher this round
	Fetches           int64 // data fetch requests sent
	IDALost           int64 // handovers where fewer than K pieces survived
	IDARecoded        int64 // handovers that reconstructed and re-dispersed
	CacheHits         int64 // retrievals resolved by a cached copy
	CacheServed       int64 // inquiries answered directly from a cache
	CacheSeeds        int64 // cache replicas pushed to walk-sample sources
	CacheInserts      int64 // cache entries written (excluding refreshes)
	CacheEvictions    int64 // live cache entries evicted by LRU pressure
	CacheExpired      int64 // lookups that found only a TTL-expired entry
}

// SearchRounds returns the rounds-to-resolve histograms of cache-served
// and of committee-served retrievals. Call between rounds.
func (h *Handler) SearchRounds() (cached, uncached telemetry.HistValue) {
	return h.ctr.roundsCached.Value(), h.ctr.roundsUncached.Value()
}

// Counters returns a snapshot of event counters. The send counts are read
// from the engine's per-kind tally (Sent), the store of record for what
// the handlers sent, so each send is counted once; the rest are merged
// from the telemetry registry. Call between rounds.
func (h *Handler) Counters() Counters {
	sent := func(kind uint8) int64 { return h.e.KindCount(kind).Msgs }
	return Counters{
		InvitesSent:       sent(KindCInvite),
		Handovers:         h.ctr.handovers.Value(),
		FallbackHandovers: h.ctr.fallbackHandovers.Value(),
		Resignations:      h.ctr.resignations.Value(),
		CommitteesCreated: h.ctr.committeeCreated.Value(),
		Waves:             h.ctr.waves.Value(),
		GrowSent:          sent(KindLGrow) + sent(KindSGrow),
		Inquiries:         sent(KindSInquire),
		InquiryPairs:      h.ctr.inquiryPairs.Value(),
		Dones:             sent(KindSDone),
		Founds:            sent(KindSFound),
		FoundRepeats:      h.ctr.foundRepeats.Value(),
		Fetches:           sent(KindSFetch),
		IDALost:           h.ctr.idaLost.Value(),
		IDARecoded:        h.ctr.idaRecoded.Value(),
		CacheHits:         h.ctr.cacheHits.Value(),
		CacheServed:       sent(KindCacheData),
		CacheSeeds:        sent(KindCacheSeed),
		CacheInserts:      h.ctr.cacheInserts.Value(),
		CacheEvictions:    h.ctr.cacheEvictions.Value(),
		CacheExpired:      h.ctr.cacheExpired.Value(),
	}
}

// KindSent is what the handlers sent of one message kind.
type KindSent struct {
	Name string // the kind's metric name (dynp2p_proto_kind_<Name>_*)
	simnet.KindCount
}

// Sent returns what the handlers have sent of every kind so far, in
// kindNames order, from the engine's per-kind tally. Call between rounds.
func (h *Handler) Sent() []KindSent {
	out := make([]KindSent, len(kindNames))
	for i, k := range kindNames {
		out[i] = KindSent{k.name, h.e.KindCount(k.kind)}
	}
	return out
}

// SearchResult records the outcome of one retrieval operation.
type SearchResult struct {
	Searcher simnet.NodeID
	Key      uint64
	Start    int  // round the retrieval was requested
	Found    int  // round the searcher learned a storage-committee roster (-1 if never)
	Done     int  // round the item bytes were reconstructed (-1 if never)
	Success  bool // true if the data was retrieved and verified
	Cached   bool // true if a cached copy resolved the retrieval
	Bytes    int  // length of the retrieved data
}

// nodeState is the per-slot protocol state. It is reset in place when the
// slot's occupant is churned: the newcomer knows nothing.
type nodeState struct {
	id simnet.NodeID

	// recent is a ring buffer of recent walk-sample sources — the node's
	// window onto the "soup" from which it draws random peers — written
	// backwards: its recentLen newest run from recentPos, wrapping.
	recent    []simnet.NodeID
	recentPos int
	recentLen int

	memberships table[membership]  // item key -> storage-committee membership and its copy/piece
	storageLM   table[lmEntry]     // item key -> storage landmark state
	searchLM    table[searchTask]  // item key -> active search tasks, a key's in arrival order (add)
	searches    table[searchState] // item key -> retrieval this node runs
	pending     []pendingOp
}

// lmEntry is a storage-landmark registration: this node can point
// searchers at the item's committee.
type lmEntry struct {
	roster []simnet.NodeID
	expiry int
	wave   int
	// toldAt and toldTo are the round and the last two searchers (newest
	// first, 0 = none) the registration's inquiries named in it: onInquire
	// leaves a searcher the stamp holds unanswered.
	toldAt int
	toldTo [2]simnet.NodeID
}

// searchTask makes this node a search landmark for (key, searcher): a node
// of one of the searcher's landmark trees, whose first level is the search
// committee (Algorithm 4 step 1).
type searchTask struct {
	searcher simnet.NodeID
	expiry   int
	wave     int    // round the tree that last reached the node was rooted
	grow     int    // depth the node still grows the tree to, in this round's tick
	trace    uint64 // the search's lifecycle trace id (0 = untraced)
	// kids are the children it grew the tree to (0 = none): whom it passes
	// the search's KindSDone on to.
	kids [TreeFanout]simnet.NodeID
}

// pendingOp is a Store/Retrieve request waiting for enough walk samples to
// pick a committee.
type pendingOp struct {
	store bool // a Store; else a Retrieve
	key   uint64
	data  []byte
	start int
}

// NewHandler builds the protocol handler. The soup must be registered as a
// hook on the same engine. Panics on invalid parameters.
func NewHandler(e *simnet.Engine, soup *walks.Soup, p Params) *Handler {
	p.validate()
	if p.CacheTTL == 0 {
		p.CacheTTL = 2 * p.LandmarkTTL()
	}
	if p.CacheSeedRate == 0 {
		p.CacheSeedRate = defaultCacheSeedRate
	}
	h := &Handler{
		P: p, e: e, soup: soup,
		seed:   e.Config().ProtocolSeed,
		states: make([]nodeState, e.N()),
		slabs:  make([]slab, e.Grid().Count()),
		census: make([]table[int], e.Grid().Count()),
		ctr:    newCounters(e.Telemetry()),

		cacheArena: make([]cacheEntry, e.N()*p.CacheCapacity),
	}
	// Every slot's sample ring is a capped window of one array, carved as
	// the cache arena is: churn empties a ring in place (OnJoin).
	sb := p.SampleBuffer()
	rings := make([]simnet.NodeID, e.N()*sb)
	for s := range h.states {
		h.states[s].recent = rings[s*sb : (s+1)*sb : (s+1)*sb]
	}
	if p.IDAThreshold > 0 {
		c, err := ida.New(p.IDAThreshold, p.CommitteeSize)
		if err != nil {
			panic("protocol: " + err.Error())
		}
		h.code = c
		h.dispersals = make(map[uint64]dispersal)
	}
	e.SetHeldKeys(h.heldKeys)
	e.Telemetry().RegisterCollector(h.collectMemory)
	// What the handlers sent of each kind, as the engine counts it.
	e.Telemetry().RegisterCollector(func(emit func(string, telemetry.Kind, int64)) {
		for _, k := range h.Sent() {
			emit("dynp2p_proto_kind_"+k.Name+"_msgs_total", telemetry.KindCounter, k.Msgs)
			emit("dynp2p_proto_kind_"+k.Name+"_dead_total", telemetry.KindCounter, k.Dead)
			emit("dynp2p_proto_kind_"+k.Name+"_bits_total", telemetry.KindCounter, k.Bits)
		}
	})
	return h
}

// heldKeys is the routed walk's holder enumeration (simnet.SetHeldKeys):
// it appends to dst the keys slot could answer an inquiry for right now —
// its live cache entries and unexpired storage-landmark registrations,
// exactly the two paths onInquire serves from. The engine calls it
// serially, between handler phases, so the read-only scan is race-free;
// it never bumps LRU clocks — routing observes, never mutates. It ignores
// the one-answer-a-round stamps (cacheEntry.served, lmEntry.toldAt): a
// routed inquiry that ends at a holder which has already answered this
// round may get no reply.
func (h *Handler) heldKeys(slot, round int, dst []uint64) []uint64 {
	for i := slot * h.P.CacheCapacity; i < (slot+1)*h.P.CacheCapacity; i++ {
		if e := &h.cacheArena[i]; e.expiry != 0 && round < int(e.expiry) {
			dst = append(dst, e.key)
		}
	}
	lm := &h.states[slot].storageLM
	for i := range lm.vals {
		if round < lm.vals[i].expiry {
			dst = append(dst, lm.keys[i])
		}
	}
	return dst
}

// OnJoin implements simnet.Handler: a fresh node knows nothing. Every
// array of the departed node's tables, memberships and searches goes back
// to the slot's shard slab, which the newcomer's tables grow from, and its
// pending requests and sample ring are emptied in place — churn runs
// serially between handler phases, and no pointer into a table outlives
// the handler call that took it — so a replaced slot costs no allocation.
func (h *Handler) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	st := &h.states[slot]
	st.id = id
	st.recentPos, st.recentLen = 0, 0
	sh := e.Grid().Of(slot, e.N())
	sl := &h.slabs[sh]
	for i := range st.memberships.vals {
		h.delist(sh, st.memberships.keys[i])
		st.memberships.vals[i].release(sl)
	}
	for i := range st.searches.vals {
		st.searches.vals[i].release(sl)
	}
	st.memberships.release(sl)
	st.storageLM.release(sl)
	st.searchLM.release(sl)
	st.searches.release(sl)
	clear(st.pending)
	st.pending = st.pending[:0]
	h.cacheClearSlot(slot)
}

// OnLeave implements simnet.Handler.
func (h *Handler) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {}

// enlist counts one more of shard sh's slots in key's committee.
func (h *Handler) enlist(sh int, key uint64) {
	if c := h.census[sh].get(key); c != nil {
		*c++
	} else {
		h.census[sh].put(&h.slabs[sh], key, 1)
	}
}

// delist counts one fewer of shard sh's slots in key's committee.
func (h *Handler) delist(sh int, key uint64) {
	if c := h.census[sh].get(key); *c > 1 {
		*c--
	} else {
		h.census[sh].del(key)
	}
}

// pushRecent records a walk sample source in the node's ring buffer. The
// ring is written backwards, so from recentPos on it reads newest first.
func (st *nodeState) pushRecent(src simnet.NodeID) {
	if st.recentPos == 0 {
		st.recentPos = len(st.recent)
	}
	st.recentPos--
	st.recent[st.recentPos] = src
	if st.recentLen < len(st.recent) {
		st.recentLen++
	}
}

// recentDistinct appends recent sample sources to dst, newest first,
// excluding the node itself and anything already in dst, until dst holds
// want ids: appendDistinct over the ring's two runs, recentPos to the end
// and then the start.
func (st *nodeState) recentDistinct(dst []simnet.NodeID, want int) []simnet.NodeID {
	head := st.recent[st.recentPos:]
	head = head[:min(len(head), st.recentLen)]
	dst = appendDistinct(dst, head, want, st.id)
	return appendDistinct(dst, st.recent[:st.recentLen-len(head)], want, st.id)
}

// HandleRound implements simnet.Handler. It is the per-node round body:
// absorb walk samples, process inbox, then run the periodic machinery.
func (h *Handler) HandleRound(ctx *simnet.Ctx) {
	st := &h.states[ctx.Slot]
	samples := h.soup.Samples(ctx.Slot)
	for _, s := range samples {
		st.pushRecent(s.Src)
	}

	for i := range ctx.Inbox {
		h.dispatch(ctx, st, &ctx.Inbox[i])
	}

	h.tickPending(ctx, st)
	h.tickMemberships(ctx, st, samples)
	h.tickSearchLandmarks(ctx, st, samples)
	h.tickSearches(ctx, st)
	if ctx.Round%16 == 5 {
		h.sweepExpired(ctx.Round, st)
	}
}

// dispatch routes one message to its protocol sub-handler. Hop counting
// is centralised here: every delivered message belonging to a traced
// operation records exactly one hop event, so per-op hop counts measure
// delivered protocol traffic regardless of which sub-handler consumes it.
func (h *Handler) dispatch(ctx *simnet.Ctx, st *nodeState, m *simnet.Msg) {
	if trace := m.Trace(); trace != 0 {
		if tr := ctx.E.Tracer(); tr != nil {
			tr.Emit(ctx.Shard, telemetry.Event{
				Trace: trace, Round: int64(ctx.Round), Kind: telemetry.EvHop,
				Msg: m.Kind, From: uint64(m.From), To: uint64(st.id),
				Item: m.Item, Aux: int64(m.Bits()), Path: m.Hops(),
			})
		}
	}
	switch m.Kind {
	case KindCInvite:
		h.onInvite(ctx, st, m)
	case KindCCount:
		h.onCount(ctx, st, m)
	case KindCHandover:
		h.onHandover(ctx, st, m)
	case KindCPiece:
		h.onPiece(ctx, st, m)
	case KindLGrow:
		h.onGrow(ctx, st, m)
	case KindSInquire:
		h.onInquire(ctx, st, m)
	case KindSFound:
		h.onFound(ctx, st, m)
	case KindSFetch:
		h.onFetch(ctx, st, m)
	case KindSData:
		h.onData(ctx, st, m)
	case KindSDone:
		h.onDone(ctx, st, m)
	case KindSGrow:
		h.onSearchGrow(ctx, st, m)
	case KindCacheData:
		h.onCached(ctx, st, m)
	case KindCacheSeed:
		h.onSeed(ctx, st, m)
	}
}

// sweepExpired drops expired landmark registrations.
func (h *Handler) sweepExpired(round int, st *nodeState) {
	st.storageLM.sweep(func(e *lmEntry) bool { return round >= e.expiry })
	st.searchLM.sweep(func(t *searchTask) bool { return round >= t.expiry })
}

// recordResult appends a finished retrieval outcome (thread-safe). The
// append order within a round is the handler shards' scheduling order,
// which DrainResults does not expose.
func (h *Handler) recordResult(r SearchResult) {
	h.mu.Lock()
	h.results = append(h.results, r)
	h.mu.Unlock()
}

// DrainResults returns and clears the accumulated retrieval outcomes in
// canonical order — by (Done, Searcher, Key, Start), so expired
// retrievals (Done = -1) come first — identical at every worker count.
// Call between rounds only.
func (h *Handler) DrainResults() []SearchResult {
	h.mu.Lock()
	r := h.results
	h.results = nil
	h.mu.Unlock()
	slices.SortStableFunc(r, func(a, b SearchResult) int {
		return cmp.Or(cmp.Compare(a.Done, b.Done), cmp.Compare(a.Searcher, b.Searcher),
			cmp.Compare(a.Key, b.Key), cmp.Compare(a.Start, b.Start))
	})
	return r
}

// --- Introspection helpers for experiments (call between rounds only) ---

// members calls f, in ascending slot order, with every slot whose
// occupant is a member of item key's storage committee and its
// membership. It scans only the shards whose census counts a member, each
// until it has met them all.
func (h *Handler) members(key uint64, f func(slot int, m *membership)) {
	g, n := h.e.Grid(), len(h.states)
	for sh := range h.census {
		c := h.census[sh].get(key)
		if c == nil {
			continue
		}
		lo, hi := g.Bounds(sh, n)
		for s, left := lo, *c; s < hi && left > 0; s++ {
			if m := h.states[s].memberships.get(key); m != nil {
				f(s, m)
				left--
			}
		}
	}
}

// CommitteeSlots returns the slots whose occupants are currently members
// of item key's storage committee, ascending, nil (no allocation) if
// there are none. It reads the shards the census names, not every slot.
func (h *Handler) CommitteeSlots(key uint64) []int {
	var out []int
	h.members(key, func(slot int, _ *membership) {
		if out == nil {
			out = make([]int, 0, h.inviteCount())
		}
		out = append(out, slot)
	})
	return out
}

// CommitteeCount returns len(CommitteeSlots(key)) from the census alone.
func (h *Handler) CommitteeCount(key uint64) int {
	c := 0
	for sh := range h.census {
		if n := h.census[sh].get(key); n != nil {
			c += *n
		}
	}
	return c
}

// CopyCount returns how many nodes hold a copy (or piece) of the item.
func (h *Handler) CopyCount(key uint64) int {
	c := 0
	h.members(key, func(_ int, m *membership) {
		if m.data != nil {
			c++
		}
	})
	return c
}

// StorageLandmarkCount returns the number of current (unexpired) storage
// landmarks for the item.
func (h *Handler) StorageLandmarkCount(key uint64, round int) int {
	c := 0
	for s := range h.states {
		if ent := h.states[s].storageLM.get(key); ent != nil && round < ent.expiry {
			c++
		}
	}
	return c
}

// SearchLandmarkCount returns the number of current (unexpired) search
// landmarks inquiring about key on searcher's behalf.
func (h *Handler) SearchLandmarkCount(key uint64, searcher simnet.NodeID, round int) int {
	c := 0
	for s := range h.states {
		if t := findSearchTask(&h.states[s], key, searcher); t != nil && round < t.expiry {
			c++
		}
	}
	return c
}
