package simnet

// Overlay message routing (DESIGN.md §11): when Config.Routing selects
// RoutingOverlay the engine stops teleporting protocol messages to their
// addressee and instead walks each one edge-by-edge over the live
// topology via internal/route. The mode is the run's, fixed when the
// engine is built: handlers send with Ctx.SendMsg / Ctx.SendKeyed either
// way, and Engine.route either hands the round's sends to the router or
// runs the oracle exchange, never both.
//
// Phase placement: routed delivery runs after the round's hooks (so the
// walked adjacency is the post-repair graph under self-healing) and
// before handlers (so a routed message arrives the round after it was
// sent — the oracle's latency). Links are unmetered: every walker
// delivers or drops in the routed phase after its send, and the busiest
// link's forward count is the congestion signal. Walkers are walked on
// the engine's workers and their outcomes booked in one fixed-order
// serial merge, so routed metrics are worker-count independent.

import (
	"fmt"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/route"
	"dynp2p/internal/shard"
	"dynp2p/internal/telemetry"
)

// RoutingMode selects how protocol messages travel.
type RoutingMode uint8

const (
	// RoutingOracle is the historical engine exchange: a message reaches
	// its addressee in one round regardless of topology.
	RoutingOracle RoutingMode = iota
	// RoutingOverlay walks every routed message over the expander's
	// edges, on a walk budget of route.AutoBudget(N, Degree) forwards.
	RoutingOverlay
)

// String returns the mode's config-file name.
func (m RoutingMode) String() string {
	if m == RoutingOverlay {
		return "overlay"
	}
	return "oracle"
}

// ParseRoutingMode resolves a routing-mode name ("oracle", "overlay");
// the empty string is oracle, matching the zero Config.
func ParseRoutingMode(s string) (RoutingMode, error) {
	switch s {
	case "", "oracle":
		return RoutingOracle, nil
	case "overlay":
		return RoutingOverlay, nil
	}
	return RoutingOracle, fmt.Errorf("simnet: unknown routing mode %q", s)
}

// RoutingConfig parameterises the engine's message routing.
type RoutingConfig struct {
	Mode RoutingMode
}

// deliveryArena is the routed phase's flat inbox store, the serial
// sibling of inboxArena: all of a round's routed deliveries are placed
// slot-major by one counting sort over the router's walker array and the
// per-slot views sliced out, so steady-state routed rounds allocate
// nothing.
type deliveryArena struct {
	msgs   []Msg
	off    []int32 // len N+1
	counts []int32 // len N
}

// initRouter builds the overlay router and its delivery arena.
func (e *Engine) initRouter() {
	e.router = route.New[Msg](e.reg, e.cfg.N, route.Params{
		Budget: route.AutoBudget(e.cfg.N, e.cfg.Degree),
		Seed:   rng.Hash(e.cfg.ProtocolSeed, 0x6f7665726c6179), // "overlay"
	}, e.workers)
	e.applyRouterEnv()
	e.routedArena.off = make([]int32, e.cfg.N+1)
	e.routedArena.counts = make([]int32, e.cfg.N)
}

// applyRouterEnv installs the engine-side callbacks on the router.
func (e *Engine) applyRouterEnv() {
	env := route.Env[Msg]{
		Graph:  func() *graph.Graph { return e.g },
		SlotOf: func(id uint64) (int32, bool) { return e.slotOf(NodeID(id)) },
		Holder: func(slot int32, key uint64) bool {
			return e.keyHolder != nil && e.keyHolder(int(slot), key, e.round)
		},
		Deliver: e.deliverRouted,
		OnDrop: func(m *Msg, h *route.Header, reason route.DropReason) {
			if m.Trace == 0 || e.tracer == nil {
				return
			}
			e.tracer.Emit(0, telemetry.Event{
				Trace: m.Trace, Round: int64(e.round), Kind: telemetry.EvDrop,
				Msg: m.Kind, From: uint64(m.From), To: uint64(m.To),
				Item: m.Item, Aux: int64(reason),
			})
		},
	}
	if e.hopRec != nil {
		rec := e.hopRec
		env.OnHop = func(from, to int32) { rec(e.round, int(from), int(to)) }
	}
	e.router.SetEnv(env)
}

// RouteMetrics returns the overlay router's counters (zero in oracle
// mode).
func (e *Engine) RouteMetrics() route.Metrics {
	if e.router == nil {
		return route.Metrics{}
	}
	return e.router.Metrics()
}

// RoutedInFlight returns the number of routed messages sent since the
// last routed phase, which walks them all (0 in oracle mode).
func (e *Engine) RoutedInFlight() int {
	if e.router == nil {
		return 0
	}
	return e.router.InFlight()
}

// SetKeyHolder installs the protocol's holder predicate: whether slot
// currently holds item key (cache entry, storage landmark, committee
// copy) at the given round. Keyed routed walks terminate early at
// holders, which is how cache replicas cut true network distance.
func (e *Engine) SetKeyHolder(fn func(slot int, key uint64, round int) bool) {
	e.keyHolder = fn
}

// SetHopRecorder installs an observer invoked for every routed forward
// with (round, from slot, to slot) — the edge-conformance audit hook for
// tests. nil removes it. Call between rounds.
func (e *Engine) SetHopRecorder(fn func(round, from, to int)) {
	e.hopRec = fn
	if e.router != nil {
		e.applyRouterEnv()
	}
}

// sendToRouter hands one stamped message to the overlay router. The walk
// seed is a pure hash of the message identity, so its port choices are
// reproducible at any worker count. The walker keeps the message's
// payload pointer: it is delivered in the next round's routed phase and
// read by that round's handlers, while the sender's slab is recycled only
// the round after (a fault-delayed message carries its own cell).
func (e *Engine) sendToRouter(m *Msg) {
	h := route.Header{
		Target: uint64(m.To),
		Seed:   rng.Hash(e.routeSeed, uint64(uint32(m.sentRound)), uint64(uint32(m.srcSlot)), uint64(m.seq)),
	}
	if m.keyed {
		h.Keyed = true
		h.Key = m.Item
	}
	e.router.Send(m, h, m.srcSlot)
}

// deliverRouted is the router's delivery callback and the counting pass
// of the inbox placement: stamp the true path length and rewrite the
// addressee on holder early-exit, in place in the router's walker array.
func (e *Engine) deliverRouted(slot int32, m *Msg, hops int32) {
	m.Hops = hops
	if id := e.ids[slot]; m.To != id {
		m.To = id // keyed walk ended at a holder: it answers instead
	}
	e.em.delivered.Inc(0)
	e.routedArena.counts[slot]++
}

// runRouted executes the routed-delivery phase: advance every in-flight
// walker over this round's adjacency, then place the deliveries into
// this round's inboxes with one stable counting sort, copying each
// message once, from the walker that carried it. Under the overlay
// nothing else reaches an inbox, so each slot's view is the arena's run.
func (e *Engine) runRouted() {
	ra := &e.routedArena
	counts := ra.counts
	clear(counts)
	e.router.Step()
	total := int(shard.Offsets(counts, ra.off))
	if total == 0 {
		return
	}
	if cap(ra.msgs) < total {
		ra.msgs = make([]Msg, total, max(total, 2*cap(ra.msgs)))
	} else {
		ra.msgs = ra.msgs[:total]
	}
	copy(counts, ra.off[:len(counts)])
	msgs := ra.msgs
	e.router.EachDelivered(func(slot int32, m *Msg) {
		pos := counts[slot]
		counts[slot] = pos + 1
		msgs[pos] = *m
	})
	for s := 0; s < e.cfg.N; s++ {
		if a, b := ra.off[s], ra.off[s+1]; a != b {
			e.inbox[s] = msgs[a:b:b]
		}
	}
}
