// Package route is the overlay forwarding subsystem: protocol messages
// travel edge-by-edge over the live expander topology instead of
// teleporting to their addressee (DESIGN.md §11).
//
// Every routed message carries a compact Header — a target node id or
// item key, a walk seed, and the hop count the walk writes back — and is
// walked by the Router as a token: at each step the current slot forwards
// it along a seeded random out-port, except that a neighbor that *is* the
// target (or, for keyed walks, any slot/neighbor currently holding the
// key) ends the walk immediately; holders are enumerated into bitsets once
// per Step (Env.HeldKeys), so the walk never calls back into the protocol.
// Links are unmetered, as in the paper's synchronous model: a message sent
// in round r delivers or drops in round r+1's Step, and nothing outlives
// it. Bandwidth is a cost, not a queue: the per-slot forward count of the
// busiest link in a round (max link load) is the congestion signal.
//
// Determinism: a walker's trajectory is a pure function of (message seed,
// start slot, round adjacency) — each hop's port is a hash of (seed, hop
// index) masked to the degree — so walkers commute and Step walks them on
// several lanes at once, each walker recording only its outcome. Every
// side effect (metrics, Deliver, OnDrop) then happens in one serial merge
// over the canonical walker order, the engine's (send round, source slot,
// sequence) order. Nothing depends on worker count or scheduling: every
// metric the router reports is bit-identical at any Workers value.
//
// One hop loop per architecture: on amd64 the two-walker kernel hopTwo
// takes every random hop. It stops a walker out of budget or on its near
// set — its target and every slot with the target or a holder of its key
// in reach — and the Go loop (Router.walk) ends the walk from there, with
// at most one near hop. Off amd64, and for a walker that starts on a near
// slot, the Go loop takes every hop; it is also what the kernel is tested
// against.
//
// Preconditions: the degree is a power of two (a hop's port is its hash
// masked to d-1; Step panics on any other), and the adjacency is a
// symmetric multigraph (u appears in v's row exactly as often as v in
// u's) — what graph.CheckRegular's callers and the overlay's
// reciprocal-port table maintain. Both loops test the current slot
// against the walker's near bitset — its target, its target's row and,
// keyed, its key's near-holder set, built once per walker — and only the
// Go loop, on a near slot, scans a row, for the target and then a holder.
//
// The Router is generic in what a walker carries so the package does not
// import the engine: simnet's walkers carry an 8-byte reference to the
// message, which stays in the engine's send buffers while it walks, and
// simnet supplies the environment callbacks (adjacency, id→slot
// resolution, held keys, delivery).
package route

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/shard"
	"dynp2p/internal/telemetry"
)

// AutoBudget returns the default walk budget for an n-slot, degree-d
// topology: 4× the expected hit time of a random walk with neighbor
// early-exit (≈ n/(d+1)), so an id-addressed walk misses its target with
// probability ≈ e⁻⁴, floored at 64 for small networks.
func AutoBudget(n, d int) int {
	b := 4 * n / (d + 1)
	if b < 64 {
		b = 64
	}
	return b
}

// DropReason classifies why the router discarded a message.
type DropReason uint8

const (
	// DropBudget: the walk budget (TTL) ran out before reaching a target.
	DropBudget DropReason = iota
	// DropDead: the id-addressed target departed before the walk began —
	// or the message named none — so no reachable destination exists.
	DropDead
)

// String returns the reason's metric/trace label.
func (r DropReason) String() string {
	switch r {
	case DropBudget:
		return "budget"
	case DropDead:
		return "dead-target"
	}
	return "unknown"
}

// Params configures a Router.
type Params struct {
	// Budget is the maximum forwards per message (the walk TTL).
	// Required > 0; engines default it with AutoBudget.
	Budget int
	// Seed salts per-message walk seeds (derive from the protocol seed).
	Seed uint64
}

// Header is the compact routing header each routed message carries.
type Header struct {
	Target uint64 // destination node id (0 = none: keyed walks only)
	Key    uint64 // item key for keyed (holder-seeking) walks
	Keyed  bool   // terminate early at any slot currently holding Key
	Hops   int32  // forwards the walk took; Send zeroes it, the walk counts from there
	Seed   uint64 // per-message walk seed (hash of the message identity)
}

// walker is one in-flight routed message: its header, the slot holding it
// (origin before a Step's walk, end slot after), the outcome the walk
// recorded for the merge, and what it carries.
type walker[M any] struct {
	h   Header
	at  int32
	out uint8
	m   M
}

// Walk outcomes; a drop is outDrop + its DropReason.
const (
	outDeliver uint8 = iota
	outDrop
)

// Env supplies the engine-side environment. Graph and HeldKeys are read
// on the Step caller's goroutine before the walk; SlotOf is read during
// the walk, possibly from several goroutines at once, and must be side-
// effect free. Deliver and OnDrop fire on the Step caller's goroutine
// only, and must not change what the first three return.
type Env[M any] struct {
	// Graph returns the round's live adjacency (post-repair under
	// self-healing, post-rewire under the oracle modes).
	Graph func() *graph.Graph
	// SlotOf resolves a live node id to its slot; ok=false once departed.
	SlotOf func(id uint64) (int32, bool)
	// HeldKeys appends to dst the keys slot can answer for right now
	// (cache entry or storage landmark) and returns it; a key may repeat.
	// A Step with keyed walkers calls it once per slot. nil = no holder
	// early-exit.
	HeldKeys func(slot int32, dst []uint64) []uint64
	// Deliver hands a message that reached slot to the engine, with the
	// number of forwards it took. m is valid only during the call; the
	// callback may stamp the message m stands for (simnet writes the hop
	// count, and at a holder the addressee, into the message where it was
	// sent).
	Deliver func(slot int32, m *M, hops int32)
	// OnDrop observes every discarded message (accounting + tracing).
	// May be nil.
	OnDrop func(m *M, h *Header, reason DropReason)
}

// metrics is the router's registry surface. Only the serial parts of the
// routed phase touch it, so every update goes to shard 0.
type metrics struct {
	sent       telemetry.Counter
	forwards   telemetry.Counter
	dropBudget telemetry.Counter
	dropDead   telemetry.Counter
	hops       telemetry.Histogram
	maxLink    telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry) metrics {
	return metrics{
		sent:       reg.Counter("dynp2p_route_sent_total", "messages handed to the overlay router"),
		forwards:   reg.Counter("dynp2p_route_forwards_total", "per-edge forwards performed by the router"),
		dropBudget: reg.Counter("dynp2p_route_dropped_budget_total", "routed messages dropped after exhausting their walk budget"),
		dropDead:   reg.Counter("dynp2p_route_dropped_dead_total", "routed messages whose id-addressed target departed"),
		hops:       reg.Histogram("dynp2p_route_hops", "forwards per delivered routed message"),
		maxLink:    reg.Gauge("dynp2p_route_max_link_load", "largest per-slot forward count in any single round"),
	}
}

// Metrics is a merged snapshot of the router's counters; Delivered is the
// hop histogram's count. Parked, DroppedQueueFull and DroppedChurn are
// always zero — links are unmetered, so nothing parks — and stay only
// because the benchmark ledger still reads them.
type Metrics struct {
	Sent             int64
	Delivered        int64
	Forwards         int64
	Parked           int64
	DroppedBudget    int64
	DroppedQueueFull int64
	DroppedChurn     int64
	DroppedDead      int64
	MaxLinkLoad      int64
}

// Router walks in-flight messages over the topology, one phase per round.
// Create with New, feed with Send, advance with Step.
type Router[M any] struct {
	p   Params
	env Env[M]

	ws []walker[M] // the walkers in canonical (send) order; Step empties it

	crew    *shard.Crew
	lanes   []lane       // per-worker walk scratch; lanes[0] also serves the serial case
	runLane func(l int)  // walkLane, bound once so a Step allocates nothing
	g       *graph.Graph // adjacency of the Step in progress
	cursor  atomic.Int64 // next unclaimed walker of the Step in progress

	// The Step's holders (buildHolders): keys is every key a keyed walker
	// carries, ascending, and key i's holder and near-holder bitsets are
	// hold[2i·words:] and hold[(2i+1)·words:]. held is HeldKeys' buffer.
	keys, hold, held []uint64
	words            int

	m       metrics
	maxLink int64 // the last Step's largest per-slot forward count
}

// Load is the router's link load: the last Step's largest per-slot
// forward count, and the forwards of every delivery so far.
type Load struct {
	MaxLink int64
	Hops    telemetry.HistValue
}

// lane is one worker's walk scratch, allocated once in New.
type lane struct {
	fwd  []int32     // per-slot forwards this lane walked this round
	ways [2][]uint64 // way i's near bitset, at k.way[i].near; the Go loop borrows the free way's
	ki   int         // index in keys of the last keyed walker's key; walkers of one key come in runs
	k    hopKernel
}

// hopWay is one of the hop kernel's two walker slots, and hopKernel is
// what hopTwo reads (hop_amd64.s, through go_asm.h) but the Go-only fields.
type hopWay struct {
	s, hops int64    // current slot, forwards so far
	base    uint64   // rng.HashInit of the walker's seed
	near    *uint64  // the walker's near slots (fillNear)
	t       int32    // target slot, -1 = none (Go only)
	hold    []uint64 // its key's holders, nil = none (Go only)
	w       int      // the walker's index in ws (Go only)
}
type hopKernel struct {
	way         [2]hopWay
	adj, fwd    *int32
	mask, shift uint64 // d-1 and log2 d
	limit       int64  // the walk budget
}

// walkChunk is how many consecutive walkers a lane claims at a time:
// enough that the shared cursor is touched once per ~10⁴ hops, few enough
// that lanes finish together.
const walkChunk = 64

// New builds a router over n slots, registering its metrics on reg. A
// Step walks on crew, one lane per crew worker at most.
func New[M any](reg *telemetry.Registry, n int, p Params, crew *shard.Crew) *Router[M] {
	if p.Budget <= 0 {
		panic("route: Params.Budget must be > 0")
	}
	r := &Router[M]{
		p:     p,
		crew:  crew,
		lanes: make([]lane, crew.Workers()),
		m:     newMetrics(reg),
	}
	r.runLane = r.walkLane
	r.words = (n + 63) / 64
	// Room for 16 carried keys' bitsets and 16 keys a slot holds; more grow them.
	r.keys, r.hold, r.held = make([]uint64, 0, 16), make([]uint64, 0, 32*r.words), make([]uint64, 0, 16)
	for l := range r.lanes {
		ln := &r.lanes[l]
		ln.fwd = make([]int32, n)
		for i := range ln.ways {
			ln.ways[i] = make([]uint64, r.words)
			ln.k.way[i].near = &ln.ways[i][0]
		}
	}
	return r
}

// SetEnv installs the engine callbacks. Call before the first Step.
func (r *Router[M]) SetEnv(env Env[M]) { r.env = env }

// Send hands a message to the router at slot `at` (its origin). The walk
// runs during the next Step, on the router's Params.Budget. Callers must
// invoke Send in canonical message order (the engine's serial exchange
// merge does).
func (r *Router[M]) Send(m *M, h Header, at int32) {
	r.m.sent.Inc(0)
	h.Hops = 0
	r.ws = append(r.ws, walker[M]{h: h, at: at, m: *m})
}

// InFlight returns the number of messages sent since the last Step: the
// walkers the next Step will walk.
func (r *Router[M]) InFlight() int { return len(r.ws) }

// Metrics returns a merged snapshot of the router's counters.
func (r *Router[M]) Metrics() Metrics {
	return Metrics{
		Sent:          r.m.sent.Value(),
		Delivered:     r.m.hops.Value().Count,
		Forwards:      r.m.forwards.Value(),
		DroppedBudget: r.m.dropBudget.Value(),
		DroppedDead:   r.m.dropDead.Value(),
		MaxLinkLoad:   r.m.maxLink.Value(),
	}
}

// Load returns the last Step's busiest link and the hop histogram.
func (r *Router[M]) Load() Load { return Load{MaxLink: r.maxLink, Hops: r.m.hops.Value()} }

// Step runs one routed-delivery phase: every message sent since the last
// Step walks until it delivers or drops, and the outcomes are then booked
// in send order. Must run after the round's topology/repair and before
// handlers.
func (r *Router[M]) Step() {
	var maxLink int32
	if len(r.ws) > 0 {
		r.g = r.env.Graph()
		if d := r.g.Degree(); d&(d-1) != 0 {
			panic("route: the degree must be a power of two")
		}
		r.buildHolders()
		maxLink = r.walkAll()
		r.merge()
		r.ws = r.ws[:0]
	}
	r.maxLink = int64(maxLink)
	r.m.maxLink.SetMax(r.maxLink)
}

// walkAll advances every walker in ws to its outcome and returns the
// round's largest per-slot forward count. Walkers commute, so up to
// len(r.lanes) lanes, one crew phase, claim chunks of ws off a shared
// cursor.
func (r *Router[M]) walkAll() int32 {
	lanes := max(1, min(len(r.lanes), len(r.ws)/walkChunk))
	r.cursor.Store(0)
	r.crew.Do(lanes, r.runLane)

	fwd := r.lanes[0].fwd
	for l := 1; l < lanes; l++ {
		for s, f := range r.lanes[l].fwd {
			fwd[s] += f
		}
	}
	forwards, maxLink := int64(0), int32(0)
	for _, f := range fwd {
		forwards += int64(f)
		maxLink = max(maxLink, f)
	}
	r.m.forwards.Add(0, forwards)
	return maxLink
}

// buildHolders enumerates, serially, the holders of every key a keyed
// walker carries with one HeldKeys call per slot: a holder's bit goes into
// the key's holder bitset, and with its row's — by port reciprocity, the
// slots with a holder in their row — into the near-holder bitset. O(n +
// held entries) besides clearing; allocation-free once grown.
func (r *Router[M]) buildHolders() {
	r.keys = r.keys[:0]
	last := uint64(0) // walkers of one key come in runs: skip the search
	for i := range r.ws {
		if h := &r.ws[i].h; h.Keyed && r.env.HeldKeys != nil && (len(r.keys) == 0 || h.Key != last) {
			if j, ok := slices.BinarySearch(r.keys, h.Key); !ok {
				r.keys = slices.Insert(r.keys, j, h.Key)
			}
			last = h.Key
		}
	}
	if len(r.keys) == 0 {
		return
	}
	r.hold = append(r.hold[:0], make([]uint64, 2*len(r.keys)*r.words)...) // zeroed; no temporary
	adj, d := r.g.Adjacency(), r.g.Degree()
	for s := range r.g.N() {
		r.held = r.env.HeldKeys(int32(s), r.held[:0])
		for _, key := range r.held {
			if i, ok := slices.BinarySearch(r.keys, key); ok {
				hold, near := r.hold[2*i*r.words:], r.hold[(2*i+1)*r.words:]
				hold[s>>6] |= 1 << (s & 63)
				near[s>>6] |= 1 << (s & 63)
				mark(near, adj[s*d:(s+1)*d])
			}
		}
	}
}

func has(set []uint64, s int32) bool { return set[s>>6]&(1<<(s&63)) != 0 }

func mark(set []uint64, row []int32) {
	for _, s := range row {
		set[s>>6] |= 1 << (s & 63)
	}
}

func unmark(set []uint64, row []int32) {
	for _, s := range row {
		set[s>>6] &^= 1 << (s & 63)
	}
}

// walkLane walks chunks of ws claimed off the cursor on lane l, first
// resolving each walker's id target: churn cannot move it mid-phase. A
// departed (or absent) target drops a pure id walk at once, as oracle
// routing would; a keyed walk goes on, as any holder can answer. Walkers
// fill the kernel's two ways, and each time both are full hopTwo runs
// until one stops and retire hands it to the Go loop. The Go loop walks
// each walker without the kernel, and one that starts on a near slot,
// where hopTwo would stop it at once.
func (r *Router[M]) walkLane(l int) {
	ln, cur, g := &r.lanes[l], r.ws, r.g
	clear(ln.fwd)
	ln.ki = 0
	adj, d := g.Adjacency(), g.Degree()
	if useHopKernel {
		ln.k.adj, ln.k.fwd = &adj[0], &ln.fwd[0]
		ln.k.mask, ln.k.shift, ln.k.limit = uint64(d-1), uint64(bits.TrailingZeros(uint(d))), int64(r.p.Budget)
	}
	live, free := false, 0 // a kernel way is live; the way the next walker takes
	for {
		hi := int(r.cursor.Add(walkChunk))
		lo := hi - walkChunk
		if lo >= len(cur) {
			break
		}
		for i := lo; i < min(hi, len(cur)); i++ {
			w := &cur[i]
			tslot := int32(-1)
			if s, ok := r.env.SlotOf(w.h.Target); ok && w.h.Target != 0 {
				tslot = s
			}
			if tslot < 0 && !w.h.Keyed {
				w.out = outDrop + uint8(DropDead)
				continue
			}
			near := ln.ways[free]
			hold := r.fillNear(ln, near, &w.h, tslot, adj, d)
			if !useHopKernel || has(near, w.at) {
				r.walk(w, tslot, near, hold, ln.fwd, adj, d)
				clearNear(near, hold, tslot, adj, d)
				continue
			}
			ln.k.way[free] = hopWay{s: int64(w.at), t: tslot, base: rng.HashInit(w.h.Seed), near: &near[0], hold: hold, w: i}
			if !live {
				live, free = true, 1-free
				continue
			}
			free = hopTwo(&ln.k, false)
			r.retire(ln, free, adj, d)
		}
	}
	if live { // hopTwo walks way 0 alone
		if free == 0 {
			ln.k.way[0], ln.k.way[1] = ln.k.way[1], ln.k.way[0]
			ln.ways[0], ln.ways[1] = ln.ways[1], ln.ways[0]
		}
		r.retire(ln, hopTwo(&ln.k, true), adj, d)
	}
}

// fillNear sets in near, which is clear, the walker's near slots —
// wherever its walk ends or takes no random port: its target tslot, the
// slots next to it (by port reciprocity, its row) and, keyed, its key's
// near-holder set, holders included. It returns the key's holder bitset,
// nil for an id walk or with no HeldKeys.
func (r *Router[M]) fillNear(ln *lane, near []uint64, h *Header, tslot int32, adj []int32, d int) (hold []uint64) {
	if h.Keyed && len(r.keys) > 0 { // then keys holds every keyed walker's key
		if r.keys[ln.ki] != h.Key {
			ln.ki, _ = slices.BinarySearch(r.keys, h.Key)
		}
		i := ln.ki
		hold = r.hold[2*i*r.words : (2*i+1)*r.words]
		copy(near, r.hold[(2*i+1)*r.words:(2*i+2)*r.words])
	}
	if tslot >= 0 {
		near[tslot>>6] |= 1 << (tslot & 63)
		mark(near, adj[int(tslot)*d:(int(tslot)+1)*d])
	}
	return hold
}

// clearNear clears what fillNear set.
func clearNear(near, hold []uint64, tslot int32, adj []int32, d int) {
	if hold != nil {
		clear(near)
	} else if tslot >= 0 {
		near[tslot>>6] &^= 1 << (tslot & 63)
		unmark(near, adj[int(tslot)*d:(int(tslot)+1)*d])
	}
}

// retire hands the walker lane ln's kernel way i stopped — out of budget
// or on a near slot — to the Go loop, which books its outcome, and clears
// the way's near bitset.
func (r *Router[M]) retire(ln *lane, i int, adj []int32, d int) {
	wy, near := &ln.k.way[i], ln.ways[i]
	w := &r.ws[wy.w]
	w.at, w.h.Hops = int32(wy.s), int32(wy.hops)
	r.walk(w, wy.t, near, wy.hold, ln.fwd, adj, d)
	clearNear(near, wy.hold, wy.t, adj, d)
}

// walk is the Go hop loop: it advances one message from slot w.at, after
// w.h.Hops forwards, towards tslot (-1 = none), with near and hold from
// fillNear and counting forwards in fwd, until it delivers or drops, and
// records that outcome, the end slot and the hop count in w. Per hop it
// costs one port hash, one adjacency load, one link-meter update and bit
// tests; only on a near slot does it scan the row, target first.
func (r *Router[M]) walk(w *walker[M], tslot int32, near, hold []uint64, fwd []int32, adj []int32, d int) {
	h := &w.h
	// Port p of hop i is rng.Hash(seed, i) & (d-1), with the seed round
	// of the hash hoisted.
	base, mask := rng.HashInit(h.Seed), uint64(d-1)
	s, hops, limit := w.at, int(h.Hops), r.p.Budget
	for {
		if s == tslot || (hold != nil && has(hold, s)) {
			w.out = outDeliver
			break
		}
		if hops >= limit {
			w.out = outDrop + uint8(DropBudget)
			break
		}
		row := adj[int(s)*d : (int(s)+1)*d]
		next := int32(-1)
		if has(near, s) {
			for _, nb := range row {
				if nb == tslot { // the exact target wins over any holder
					next = nb
					break
				}
				if next < 0 && hold != nil && has(hold, nb) {
					next = nb
				}
			}
		}
		if next < 0 {
			next = row[rng.HashMix(base, uint64(hops))&mask]
		}
		fwd[s]++
		hops++
		s = next
	}
	w.at, h.Hops = s, int32(hops)
}

// merge books every walker's outcome in canonical order — the only place
// the routed phase touches metrics or callbacks.
func (r *Router[M]) merge() {
	for i := range r.ws {
		w := &r.ws[i]
		if w.out == outDeliver {
			r.m.hops.Observe(0, int64(w.h.Hops))
			r.env.Deliver(w.at, &w.m, w.h.Hops)
			continue
		}
		reason := DropReason(w.out - outDrop)
		if reason == DropBudget {
			r.m.dropBudget.Inc(0)
		} else {
			r.m.dropDead.Inc(0)
		}
		if r.env.OnDrop != nil {
			r.env.OnDrop(&w.m, &w.h, reason)
		}
	}
}
