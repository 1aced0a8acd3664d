// Package route is the overlay forwarding subsystem: protocol messages
// travel edge-by-edge over the live expander topology instead of
// teleporting to their addressee (DESIGN.md §11).
//
// Every routed message carries a compact Header — remaining walk budget
// (TTL), hop count, and a target node id or item key — and is walked by
// the Router as a token: at each step the current slot forwards it along
// a seeded random out-port, except that a neighbor that *is* the target
// (or, for keyed walks, any slot/neighbor currently holding the key) ends
// the walk immediately. Each slot has a per-round link-capacity budget;
// a message arriving at a slot whose capacity is spent parks in that
// slot's bounded FIFO queue and resumes next round, so congestion shows
// up as real queueing delay, and queue depth, link load, and drops are
// first-class metrics.
//
// Determinism: a walker's trajectory is a pure function of (message seed,
// start slot, round adjacency) — each hop's port is a hash of (seed, hop
// index) — so with unlimited link capacity walkers commute and Step walks
// them on several lanes at once, each walker recording only its outcome.
// Every side effect (metrics, Deliver, OnDrop, parking) then happens in
// one serial merge over the canonical walker order — parked walkers oldest
// first, then fresh transit in the engine's (send round, source slot,
// sequence) order. Finite capacity makes walkers compete for link budget
// in that order, and a hop recorder observes it, so either runs the same
// code on a single lane. Nothing depends on worker count or scheduling:
// every metric the router reports is bit-identical at any Workers value.
//
// Precondition: the adjacency is a symmetric multigraph (u appears in v's
// row exactly as often as v in u's) — what graph.CheckRegular's callers
// and the overlay's reciprocal-port table maintain. The hop kernel spots
// "the target is a neighbour of the current slot" by testing the current
// slot against the target's own row, loaded once per walker.
//
// The Router is generic in the message type so the package does not
// import the engine; simnet instantiates Router[simnet.Msg] and supplies
// the environment callbacks (adjacency, id→slot resolution, key-holder
// lookup, delivery).
package route

import (
	"math"
	"sync"
	"sync/atomic"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/telemetry"
)

// DefaultQueueLimit bounds each slot's parked-walker FIFO when
// Params.QueueLimit is 0.
const DefaultQueueLimit = 64

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
	// DropQueueFull: the message arrived at a capacity-exhausted slot
	// whose FIFO queue was already at its bound.
	DropQueueFull
	// DropChurn: the slot holding a parked message was churned out; the
	// queue dies with its node.
	DropChurn
	// DropDead: the id-addressed target departed before the walk began or
	// resumed — or the message named none — so no reachable destination
	// exists.
	DropDead
)

// String returns the reason's metric/trace label.
func (r DropReason) String() string {
	switch r {
	case DropBudget:
		return "budget"
	case DropQueueFull:
		return "queue-full"
	case DropChurn:
		return "churn"
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
	// LinkCapacity bounds forwards out of one slot per round; a message
	// arriving at a spent slot parks in its queue. 0 = unlimited.
	LinkCapacity int
	// QueueLimit bounds parked walkers per slot; arrivals beyond it are
	// dropped (DropQueueFull). 0 = DefaultQueueLimit.
	QueueLimit int
	// Seed salts per-message walk seeds (derive from the protocol seed).
	Seed uint64
}

// Header is the compact routing header each routed message carries.
type Header struct {
	Target uint64 // destination node id (0 = none: keyed walks only)
	Key    uint64 // item key for keyed (holder-seeking) walks
	Keyed  bool   // terminate early at any slot currently holding Key
	Budget int32  // remaining forwards; 0 at Send = router's Params.Budget
	Hops   int32  // forwards taken so far
	Seed   uint64 // per-message walk seed (hash of the message identity)
}

// walker is one in-flight routed message: its header, the slot holding it
// (origin or parking slot before a Step's walk, end slot after), the
// outcome the walk recorded for the merge, and the payload.
type walker[M any] struct {
	h   Header
	at  int32
	out uint8
	m   M
}

// Walk outcomes; a drop is outDrop + its DropReason.
const (
	outDeliver uint8 = iota
	outPark
	outDrop
)

// Env supplies the engine-side environment. Graph, SlotOf and Holder are
// read during the walk, possibly from several goroutines at once, and
// must be side-effect free; Deliver, OnDrop and OnHop fire on the Step
// caller's goroutine only, and must not change what the first three
// return.
type Env[M any] struct {
	// Graph returns the round's live adjacency (post-repair under
	// self-healing, post-rewire under the oracle modes).
	Graph func() *graph.Graph
	// SlotOf resolves a live node id to its slot; ok=false once departed.
	SlotOf func(id uint64) (int32, bool)
	// Holder reports whether slot currently holds key (cache entry,
	// storage landmark, or committee copy). nil = no holder early-exit.
	Holder func(slot int32, key uint64) bool
	// Deliver hands a message that reached slot to the engine, with the
	// number of forwards it took. Changes made through m are what
	// EachDelivered later revisits.
	Deliver func(slot int32, m *M, hops int32)
	// OnDrop observes every discarded message (accounting + tracing).
	// May be nil.
	OnDrop func(m *M, h *Header, reason DropReason)
	// OnHop observes every forward as a (from, to) slot edge — the
	// edge-conformance test hook. May be nil (the production case); while
	// installed the walk stays on one lane so hops arrive in walker order.
	OnHop func(from, to int32)
}

// metrics is the router's registry surface. Only the serial parts of the
// routed phase touch it, so every update goes to shard 0.
type metrics struct {
	sent       telemetry.Counter
	delivered  telemetry.Counter
	forwards   telemetry.Counter
	parked     telemetry.Counter
	dropBudget telemetry.Counter
	dropQueue  telemetry.Counter
	dropChurn  telemetry.Counter
	dropDead   telemetry.Counter
	hops       telemetry.Histogram
	queueDepth telemetry.Histogram
	maxLink    telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry) metrics {
	return metrics{
		sent:       reg.Counter("dynp2p_route_sent_total", "messages handed to the overlay router"),
		delivered:  reg.Counter("dynp2p_route_delivered_total", "routed messages that reached a target"),
		forwards:   reg.Counter("dynp2p_route_forwards_total", "per-edge forwards performed by the router"),
		parked:     reg.Counter("dynp2p_route_queued_total", "walkers parked at capacity-exhausted slots"),
		dropBudget: reg.Counter("dynp2p_route_dropped_budget_total", "routed messages dropped after exhausting their walk budget"),
		dropQueue:  reg.Counter("dynp2p_route_dropped_queuefull_total", "routed messages dropped at a full slot queue"),
		dropChurn:  reg.Counter("dynp2p_route_dropped_churn_total", "queued routed messages lost when their slot churned"),
		dropDead:   reg.Counter("dynp2p_route_dropped_dead_total", "routed messages whose id-addressed target departed"),
		hops:       reg.Histogram("dynp2p_route_hops", "forwards per delivered routed message"),
		queueDepth: reg.Histogram("dynp2p_route_queue_depth", "slot queue depth observed at each parking event"),
		maxLink:    reg.Gauge("dynp2p_route_max_link_load", "largest per-slot forward count in any single round"),
	}
}

// Metrics is a merged snapshot of the router's counters.
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

	// ws is the walker array in canonical order: ws[:nq] parked (FIFO),
	// then fresh sends. Step leaves the walkers it walked in place with
	// their outcomes, so EachDelivered reads delivered payloads where they
	// lie; that stale prefix is ws[:walked], of which nq parked, and
	// settle compacts it away before anything else touches ws.
	ws     []walker[M]
	nq     int
	walked int

	lanes  []lane       // per-worker walk scratch; lanes[0] also serves the serial case
	g      *graph.Graph // adjacency of the Step in progress
	cursor atomic.Int64 // next unclaimed walker of the Step in progress
	wg     sync.WaitGroup

	qlen []int32 // per-slot parked-walker count
	mark []uint8 // churn scratch for DropQueuedAt

	m metrics
}

// lane is one worker's walk scratch, allocated once in New.
type lane struct {
	fwd      []int32  // per-slot forwards this lane walked this round
	near     []uint64 // bitset: slots adjacent to the current walker's target
	forwards int64    // forwards this lane walked this round
	spawn    func()   // goroutine body, built once so a Step allocates nothing
}

// walkChunk is how many consecutive walkers a lane claims at a time:
// enough that the shared cursor is touched once per ~10⁴ hops, few enough
// that lanes finish together.
const walkChunk = 64

// New builds a router over n slots, registering its metrics on reg.
// workers bounds the lanes an unlimited-capacity Step walks on.
func New[M any](reg *telemetry.Registry, n int, p Params, workers int) *Router[M] {
	if p.Budget <= 0 {
		panic("route: Params.Budget must be > 0")
	}
	if p.QueueLimit <= 0 {
		p.QueueLimit = DefaultQueueLimit
	}
	r := &Router[M]{
		p:     p,
		lanes: make([]lane, max(workers, 1)),
		qlen:  make([]int32, n),
		mark:  make([]uint8, n),
		m:     newMetrics(reg),
	}
	for l := range r.lanes {
		r.lanes[l] = lane{
			fwd:  make([]int32, n),
			near: make([]uint64, (n+63)/64),
			spawn: func() {
				defer r.wg.Done()
				r.runLane(l)
			},
		}
	}
	return r
}

// SetEnv installs the engine callbacks. Call before the first Step.
func (r *Router[M]) SetEnv(env Env[M]) { r.env = env }

// Send hands a message to the router at slot `at` (its origin). The walk
// starts during the next Step. h.Budget 0 takes the router's default.
// Callers must invoke Send in canonical message order (the engine's
// serial exchange merge does).
func (r *Router[M]) Send(m *M, h Header, at int32) {
	r.settle()
	if h.Budget <= 0 {
		h.Budget = int32(r.p.Budget)
	}
	r.m.sent.Inc(0)
	r.ws = append(r.ws, walker[M]{h: h, at: at, m: *m})
}

// InFlight returns the number of messages the router currently holds
// (parked plus transit).
func (r *Router[M]) InFlight() int {
	if r.walked > 0 {
		return r.nq // only the parked survive a Step
	}
	return len(r.ws)
}

// settle drops the walkers the last Step finished with, keeping the
// parked ones, in order, as the new head of ws.
func (r *Router[M]) settle() {
	if r.walked == 0 {
		return
	}
	kept := 0
	for i := 0; kept < r.nq; i++ {
		if r.ws[i].out != outPark {
			continue
		}
		if kept != i {
			r.ws[kept] = r.ws[i]
		}
		kept++
	}
	r.ws, r.walked = r.ws[:kept], 0
}

// QueuedAt returns the number of walkers parked at slot s.
func (r *Router[M]) QueuedAt(s int) int { return int(r.qlen[s]) }

// Metrics returns a merged snapshot of the router's counters.
func (r *Router[M]) Metrics() Metrics {
	return Metrics{
		Sent:             r.m.sent.Value(),
		Delivered:        r.m.delivered.Value(),
		Forwards:         r.m.forwards.Value(),
		Parked:           r.m.parked.Value(),
		DroppedBudget:    r.m.dropBudget.Value(),
		DroppedQueueFull: r.m.dropQueue.Value(),
		DroppedChurn:     r.m.dropChurn.Value(),
		DroppedDead:      r.m.dropDead.Value(),
		MaxLinkLoad:      r.m.maxLink.Value(),
	}
}

// DropQueuedAt discards every parked walker whose slot appears in slots
// (the round's churned set): a node's queue dies with it. Each casualty
// is counted (DropChurn) and reported through OnDrop so it is never
// silently lost. Transit messages are not affected: their transmission
// already left the sender.
func (r *Router[M]) DropQueuedAt(slots []int) {
	r.settle()
	if r.nq == 0 || len(slots) == 0 {
		return
	}
	for _, s := range slots {
		r.mark[s] = 1
	}
	kept := 0
	for i := 0; i < r.nq; i++ {
		w := &r.ws[i]
		if r.mark[w.at] != 0 {
			r.qlen[w.at]--
			r.drop(w, DropChurn)
			continue
		}
		if kept != i {
			r.ws[kept] = *w
		}
		kept++
	}
	if kept != r.nq {
		r.ws = r.ws[:kept+copy(r.ws[kept:], r.ws[r.nq:])]
		r.nq = kept
	}
	for _, s := range slots {
		r.mark[s] = 0
	}
}

// Step runs one routed-delivery phase: parked walkers resume (oldest
// first), then fresh transit walks in arrival order. Each walker forwards
// until it delivers, drops, or parks at a capacity-exhausted slot; the
// outcomes are then booked in that same order. Must run after the round's
// topology/repair and before handlers.
func (r *Router[M]) Step() {
	r.settle()
	var maxLink int32
	if len(r.ws) > 0 {
		maxLink = r.walkAll()
		r.merge()
	}
	r.m.maxLink.SetMax(int64(maxLink))
}

// EachDelivered revisits, in canonical order, every message the last Step
// delivered and the slot it reached — the engine's inbox placement pass,
// reading payloads straight out of the walker array. Valid until the next
// Send, Step or DropQueuedAt.
func (r *Router[M]) EachDelivered(fn func(slot int32, m *M)) {
	for i := range r.ws[:r.walked] {
		if w := &r.ws[i]; w.out == outDeliver {
			fn(w.at, &w.m)
		}
	}
}

// walkAll advances every walker in ws to its outcome and returns the
// round's largest per-slot forward count. With unlimited capacity and no
// hop recorder the walkers commute, so up to len(r.lanes) goroutines claim
// chunks of ws off a shared cursor; otherwise the caller walks them all,
// in order, on lane 0.
func (r *Router[M]) walkAll() int32 {
	lanes := 1
	if r.p.LinkCapacity == 0 && r.env.OnHop == nil {
		lanes = max(1, min(len(r.lanes), len(r.ws)/walkChunk))
	}
	r.g = r.env.Graph()
	r.cursor.Store(0)
	r.wg.Add(lanes - 1)
	for l := 1; l < lanes; l++ {
		go r.lanes[l].spawn()
	}
	r.runLane(0)
	r.wg.Wait()

	fwd := r.lanes[0].fwd
	forwards := r.lanes[0].forwards
	for l := 1; l < lanes; l++ {
		forwards += r.lanes[l].forwards
		for s, f := range r.lanes[l].fwd {
			fwd[s] += f
		}
	}
	r.m.forwards.Add(0, forwards)
	var maxLink int32
	for _, f := range fwd {
		maxLink = max(maxLink, f)
	}
	return maxLink
}

// runLane walks chunks of ws claimed off the cursor on lane l.
func (r *Router[M]) runLane(l int) {
	ln, cur, g := &r.lanes[l], r.ws, r.g
	clear(ln.fwd)
	var forwards int64
	for {
		hi := int(r.cursor.Add(walkChunk))
		lo := hi - walkChunk
		if lo >= len(cur) {
			break
		}
		for i := lo; i < min(hi, len(cur)); i++ {
			forwards += r.walk(&cur[i], ln, g)
		}
	}
	ln.forwards = forwards
}

// walk is the hop kernel: it advances one message until it delivers,
// drops, or parks, records that outcome in w and returns the forwards
// taken. Per hop it costs one port hash, one adjacency load and one
// link-meter update; everything hop-invariant is set up here, once.
func (r *Router[M]) walk(w *walker[M], ln *lane, g *graph.Graph) int64 {
	h := &w.h
	// Resolve the id-addressed target once per round: churn cannot move
	// it mid-phase. A departed (or absent) target ends a pure id walk
	// immediately — the same failure mode (and drop timing) as oracle
	// routing — while a keyed walk keeps going: any live holder can still
	// answer.
	tslot := int32(-1)
	if h.Target != 0 {
		if s, ok := r.env.SlotOf(h.Target); ok {
			tslot = s
		}
	}
	if tslot < 0 && !h.Keyed {
		w.out = outDrop + uint8(DropDead)
		return 0
	}
	adj, d := g.Adjacency(), g.Degree()
	// The target's row, as a bitset over slots: by port reciprocity
	// "s has the target as a neighbour" is "s is in the target's row".
	near := ln.near
	var trow []int32
	if tslot >= 0 {
		trow = adj[int(tslot)*d : (int(tslot)+1)*d]
		for _, nb := range trow {
			near[nb>>6] |= 1 << (nb & 63)
		}
	}
	holder, key := r.env.Holder, h.Key
	keyed := h.Keyed && holder != nil
	onHop := r.env.OnHop
	fwd := ln.fwd
	capacity := int32(math.MaxInt32)
	if r.p.LinkCapacity > 0 {
		capacity = int32(r.p.LinkCapacity)
	}
	// Port p of hop i is rng.Hash(seed, i) mod d, with the seed round of
	// the hash hoisted and the modulus a mask when d is a power of two.
	base := rng.HashInit(h.Seed)
	mask := uint64(0)
	if d&(d-1) == 0 {
		mask = uint64(d - 1)
	}
	s, hops := w.at, int(h.Hops)
	limit := hops + int(h.Budget)
	for {
		if s == tslot || (keyed && holder(s, key)) {
			w.out = outDeliver
			break
		}
		if hops >= limit {
			w.out = outDrop + uint8(DropBudget)
			break
		}
		f := fwd[s]
		if f >= capacity {
			w.out = outPark
			break
		}
		next := tslot // the exact target wins over any holder
		if near[s>>6]&(1<<(s&63)) == 0 {
			next = -1
			row := int(s) * d
			if keyed {
				for _, nb := range adj[row : row+d] {
					if holder(nb, key) {
						next = nb
						break
					}
				}
			}
			if next < 0 {
				x := rng.HashMix(base, uint64(hops))
				if mask != 0 {
					x &= mask
				} else {
					x %= uint64(d)
				}
				next = adj[row+int(x)]
			}
		}
		fwd[s] = f + 1
		hops++
		if onHop != nil {
			onHop(s, next)
		}
		s = next
	}
	for _, nb := range trow {
		near[nb>>6] &^= 1 << (nb & 63)
	}
	taken := int64(hops) - int64(h.Hops)
	w.at, h.Hops, h.Budget = s, int32(hops), int32(limit-hops)
	return taken
}

// merge books every walker's outcome in canonical order — the only place
// the routed phase touches metrics, callbacks or queues.
func (r *Router[M]) merge() {
	// Parked walkers left their queues when they were picked up; qlen is
	// rebuilt by this Step's parking events.
	clear(r.qlen)
	r.nq, r.walked = 0, len(r.ws)
	for i := range r.ws {
		w := &r.ws[i]
		switch w.out {
		case outDeliver:
			r.m.delivered.Inc(0)
			r.m.hops.Observe(0, int64(w.h.Hops))
			r.env.Deliver(w.at, &w.m, w.h.Hops)
		case outPark:
			// The slot's FIFO queue is bounded; arrivals beyond it drop.
			if int(r.qlen[w.at]) >= r.p.QueueLimit {
				w.out = outDrop + uint8(DropQueueFull)
				r.drop(w, DropQueueFull)
				continue
			}
			r.qlen[w.at]++
			r.nq++
			r.m.parked.Inc(0)
			r.m.queueDepth.Observe(0, int64(r.qlen[w.at]))
		default:
			r.drop(w, DropReason(w.out-outDrop))
		}
	}
}

func (r *Router[M]) drop(w *walker[M], reason DropReason) {
	switch reason {
	case DropBudget:
		r.m.dropBudget.Inc(0)
	case DropQueueFull:
		r.m.dropQueue.Inc(0)
	case DropChurn:
		r.m.dropChurn.Inc(0)
	case DropDead:
		r.m.dropDead.Inc(0)
	}
	if r.env.OnDrop != nil {
		r.env.OnDrop(&w.m, &w.h, reason)
	}
}
