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
// slots but each invocation touches only its own slot's state, shared
// immutable configuration, and sharded telemetry cells.
type Handler struct {
	P    Params
	soup *walks.Soup
	code *ida.Coder // nil in replication mode

	states []nodeState

	// Hot-key cache (cache.go): one flat arena sized once from
	// Params.CacheCapacity, slot s owning the region [s·cap, (s+1)·cap).
	// seed keys the deterministic replica-placement hash.
	seed       uint64
	cacheArena []cacheEntry
	cacheCap   int
	cacheTTL   int
	cacheRate  float64

	mu      sync.Mutex
	results []SearchResult

	ctr counters
}

// counters are the handler's event counters: registry-backed sharded
// cells. Every update site runs inside HandleRound and adds to the
// node's shard (ctx.Shard), so the hot path takes no atomics and the
// merged totals are identical at any worker count.
type counters struct {
	invitesSent       telemetry.Counter
	handovers         telemetry.Counter
	fallbackHandovers telemetry.Counter
	resignations      telemetry.Counter
	committeeCreated  telemetry.Counter
	waves             telemetry.Counter
	growSent          telemetry.Counter
	inquiries         telemetry.Counter
	inquiryPairs      telemetry.Counter
	dones             telemetry.Counter
	founds            telemetry.Counter
	foundRepeats      telemetry.Counter
	fetches           telemetry.Counter
	idaLost           telemetry.Counter
	idaRecoded        telemetry.Counter
	cacheHits         telemetry.Counter
	cacheServed       telemetry.Counter
	cacheSeeds        telemetry.Counter
	cacheInserts      telemetry.Counter
	cacheEvictions    telemetry.Counter
	cacheExpired      telemetry.Counter
	cacheHitsByHop    telemetry.Histogram
	roundsCached      telemetry.Histogram
	roundsUncached    telemetry.Histogram
}

func newCounters(reg *telemetry.Registry) counters {
	return counters{
		invitesSent:       reg.Counter("dynp2p_proto_invites_sent_total", "committee invitations sent"),
		handovers:         reg.Counter("dynp2p_proto_handovers_total", "epoch handovers completed"),
		fallbackHandovers: reg.Counter("dynp2p_proto_fallback_handovers_total", "handovers performed by a non-primary candidate"),
		resignations:      reg.Counter("dynp2p_proto_resignations_total", "members resigned after a handover"),
		committeeCreated:  reg.Counter("dynp2p_proto_committees_created_total", "committees created by store/retrieve requests"),
		waves:             reg.Counter("dynp2p_proto_waves_total", "landmark waves started by storage members and searchers"),
		growSent:          reg.Counter("dynp2p_proto_grow_sent_total", "tree-growth messages sent"),
		inquiries:         reg.Counter("dynp2p_proto_inquiries_total", "landmark inquiries sent"),
		inquiryPairs:      reg.Counter("dynp2p_proto_inquiry_pairs_total", "landmark inquiries sent that name a second searcher"),
		dones:             reg.Counter("dynp2p_proto_search_dones_total", "search-ended notices sent (by searchers and forwarded down landmark trees)"),
		founds:            reg.Counter("dynp2p_proto_founds_total", "positive inquiry responses sent"),
		foundRepeats:      reg.Counter("dynp2p_proto_found_repeats_total", "inquiries left unanswered: the landmark already told that searcher this round"),
		fetches:           reg.Counter("dynp2p_proto_fetches_total", "data fetch requests sent"),
		idaLost:           reg.Counter("dynp2p_proto_ida_lost_total", "handovers where fewer than K pieces survived"),
		idaRecoded:        reg.Counter("dynp2p_proto_ida_recoded_total", "handovers that reconstructed and re-dispersed"),
		cacheHits:         reg.Counter("dynp2p_cache_hits_total", "retrievals resolved by a cached copy (own-node or served)"),
		cacheServed:       reg.Counter("dynp2p_cache_served_total", "inquiries answered directly from a cache"),
		cacheSeeds:        reg.Counter("dynp2p_cache_seeds_total", "cache replicas pushed to walk-sample sources"),
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

// Counters returns a snapshot of event counters, merged from the
// telemetry registry (the store of record). Call between rounds.
func (h *Handler) Counters() Counters {
	return Counters{
		InvitesSent:       h.ctr.invitesSent.Value(),
		Handovers:         h.ctr.handovers.Value(),
		FallbackHandovers: h.ctr.fallbackHandovers.Value(),
		Resignations:      h.ctr.resignations.Value(),
		CommitteesCreated: h.ctr.committeeCreated.Value(),
		Waves:             h.ctr.waves.Value(),
		GrowSent:          h.ctr.growSent.Value(),
		Inquiries:         h.ctr.inquiries.Value(),
		InquiryPairs:      h.ctr.inquiryPairs.Value(),
		Dones:             h.ctr.dones.Value(),
		Founds:            h.ctr.founds.Value(),
		FoundRepeats:      h.ctr.foundRepeats.Value(),
		Fetches:           h.ctr.fetches.Value(),
		IDALost:           h.ctr.idaLost.Value(),
		IDARecoded:        h.ctr.idaRecoded.Value(),
		CacheHits:         h.ctr.cacheHits.Value(),
		CacheServed:       h.ctr.cacheServed.Value(),
		CacheSeeds:        h.ctr.cacheSeeds.Value(),
		CacheInserts:      h.ctr.cacheInserts.Value(),
		CacheEvictions:    h.ctr.cacheEvictions.Value(),
		CacheExpired:      h.ctr.cacheExpired.Value(),
	}
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
	// window onto the "soup" from which it draws random peers.
	recent    []simnet.NodeID
	recentPos int
	recentLen int

	memberships table[membership]   // item key -> storage-committee membership
	stored      table[storedCopy]   // item key -> local copy/piece
	storageLM   table[lmEntry]      // item key -> storage landmark state
	searchLM    table[[]searchTask] // item key -> active search tasks
	searches    table[searchState]  // item key -> retrieval this node runs
	pending     []pendingOp
}

// storedCopy is this node's share of an item: the full bytes in
// replication mode, or one IDA piece.
type storedCopy struct {
	data     []byte
	pieceIdx int // -1 in replication mode
	itemLen  int
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
	h := &Handler{
		P: p, soup: soup,
		seed:   e.Config().ProtocolSeed,
		states: make([]nodeState, e.N()),
		ctr:    newCounters(e.Telemetry()),

		cacheArena: make([]cacheEntry, e.N()*p.CacheCapacity),
		cacheCap:   p.CacheCapacity,
		cacheTTL:   p.CacheTTL,
		cacheRate:  p.CacheSeedRate,
	}
	if h.cacheTTL == 0 {
		h.cacheTTL = 2 * p.LandmarkTTL
	}
	if h.cacheRate == 0 {
		h.cacheRate = defaultCacheSeedRate
	}
	if p.IDAThreshold > 0 {
		c, err := ida.New(p.IDAThreshold, p.CommitteeSize)
		if err != nil {
			panic("protocol: " + err.Error())
		}
		h.code = c
	}
	e.SetKeyHolder(h.holdsKey)
	// What the handlers sent of each kind, as the engine counts it.
	e.Telemetry().RegisterCollector(func(emit func(string, telemetry.Kind, int64)) {
		for _, k := range kindNames {
			c := e.KindCount(k.kind)
			emit("dynp2p_proto_kind_"+k.name+"_msgs_total", telemetry.KindCounter, c.Msgs)
			emit("dynp2p_proto_kind_"+k.name+"_bits_total", telemetry.KindCounter, c.Bits)
		}
	})
	return h
}

// holdsKey is the routed-walk holder predicate (simnet.SetKeyHolder):
// whether slot could answer an inquiry for key right now — a live cache
// entry or an unexpired storage-landmark registration, exactly the two
// paths onInquire serves from. It runs in the engine's serial routed
// phase, between handler phases, so the read-only scan over per-slot
// state is race-free; it deliberately never bumps LRU clocks — routing
// observes, never mutates. It ignores the one-answer-a-round stamps
// (cacheEntry.served, lmEntry.toldAt): a routed inquiry that ends at a
// holder which has already answered this round may get no reply.
func (h *Handler) holdsKey(slot int, key uint64, round int) bool {
	if h.cacheCap > 0 {
		base := slot * h.cacheCap
		for i := base; i < base+h.cacheCap; i++ {
			e := &h.cacheArena[i]
			if e.expiry != 0 && e.key == key && round < int(e.expiry) {
				return true
			}
		}
	}
	ent := h.states[slot].storageLM.get(key)
	return ent != nil && round < ent.expiry
}

// IDA reports whether erasure-coded storage is active.
func (h *Handler) IDA() bool { return h.code != nil }

// OnJoin implements simnet.Handler: a fresh node knows nothing. The slot's
// tables and sample ring are emptied in place — churn runs serially between
// handler phases, and no pointer into a table outlives the handler call
// that took it — so a replaced slot costs no allocation.
func (h *Handler) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	st := &h.states[slot]
	st.id = id
	if st.recent == nil {
		st.recent = make([]simnet.NodeID, h.P.SampleBuffer)
	}
	st.recentPos, st.recentLen = 0, 0
	st.memberships.reset()
	st.stored.reset()
	st.storageLM.reset()
	st.searchLM.reset()
	st.searches.reset()
	st.pending = nil
	h.cacheClearSlot(slot)
}

// OnLeave implements simnet.Handler.
func (h *Handler) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {}

// pushRecent records a walk sample source in the node's ring buffer.
func (st *nodeState) pushRecent(src simnet.NodeID) {
	if len(st.recent) == 0 {
		return
	}
	st.recent[st.recentPos] = src
	st.recentPos = (st.recentPos + 1) % len(st.recent)
	if st.recentLen < len(st.recent) {
		st.recentLen++
	}
}

// recentDistinct appends recent sample sources to dst, newest first,
// excluding the node itself and anything already in dst, until dst holds
// want ids. want is a committee or a tree fanout, so dst is its own
// seen-set: a linear scan beats building a map per call.
func (st *nodeState) recentDistinct(dst []simnet.NodeID, want int) []simnet.NodeID {
	for i := 0; i < st.recentLen && len(dst) < want; i++ {
		pos := (st.recentPos - 1 - i + len(st.recent)*2) % len(st.recent)
		src := st.recent[pos]
		if src == st.id || slices.Contains(dst, src) {
			continue
		}
		dst = append(dst, src)
	}
	return dst
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
	if m.Trace != 0 {
		if tr := ctx.E.Tracer(); tr != nil {
			tr.Emit(ctx.Shard, telemetry.Event{
				Trace: m.Trace, Round: int64(ctx.Round), Kind: telemetry.EvHop,
				Msg: m.Kind, From: uint64(m.From), To: uint64(st.id),
				Item: m.Item, Aux: int64(m.Bits()), Path: m.Hops,
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
	for i := 0; i < len(st.storageLM.vals); i++ {
		if round >= st.storageLM.vals[i].expiry {
			st.storageLM.delAt(i)
			i--
		}
	}
	for i := 0; i < len(st.searchLM.vals); i++ {
		kept := slices.DeleteFunc(st.searchLM.vals[i], func(t searchTask) bool { return round >= t.expiry })
		if st.searchLM.vals[i] = kept; len(kept) == 0 {
			st.searchLM.delAt(i)
			i--
		}
	}
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

// CommitteeSlots returns the slots whose occupants are currently members
// of item key's storage committee.
func (h *Handler) CommitteeSlots(key uint64) []int {
	var out []int
	for s := range h.states {
		if h.states[s].memberships.get(key) != nil {
			out = append(out, s)
		}
	}
	return out
}

// CopyCount returns how many nodes hold a copy (or piece) of the item.
func (h *Handler) CopyCount(key uint64) int {
	c := 0
	for s := range h.states {
		if h.states[s].stored.get(key) != nil {
			c++
		}
	}
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
