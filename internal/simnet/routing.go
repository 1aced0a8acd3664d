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
// the engine's crew and their outcomes booked in one fixed-order
// serial merge, so routed metrics are worker-count independent; the
// merge stages the deliveries, and the oracle's gather places them.

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
	return RoutingOracle, fmt.Errorf("simnet: unknown routing mode %q (want oracle|overlay)", s)
}

// MarshalText encodes the mode by its String name.
func (m RoutingMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes a mode name with ParseRoutingMode.
func (m *RoutingMode) UnmarshalText(b []byte) (err error) {
	*m, err = ParseRoutingMode(string(b))
	return err
}

// RoutingConfig parameterises the engine's message routing.
type RoutingConfig struct {
	Mode RoutingMode `json:"mode,omitempty"`
}

// initRouter builds the overlay router and the routed phase's staging
// source.
func (e *Engine) initRouter() {
	e.router = route.New[msgRef](e.reg, e.cfg.N, route.Params{
		Budget: route.AutoBudget(e.cfg.N, e.cfg.Degree),
		Seed:   rng.Hash(e.cfg.ProtocolSeed, 0x6f7665726c6179), // "overlay"
	}, e.crew)
	e.applyRouterEnv()
	e.routed = []*routeSource{{xfer: make([][]routedRef, e.grid.Count())}}
}

// msg returns the message ref names.
func (e *Engine) msg(ref *msgRef) *Msg { return &e.sources[ref.src].out[ref.idx] }

// applyRouterEnv installs the engine-side callbacks on the router.
func (e *Engine) applyRouterEnv() {
	env := route.Env[msgRef]{
		Graph:  func() *graph.Graph { return e.g },
		SlotOf: func(id uint64) (int32, bool) { return e.slotOf(NodeID(id)) },
		HeldKeys: func(slot int32, dst []uint64) []uint64 {
			if e.heldKeys == nil {
				return dst
			}
			return e.heldKeys(int(slot), e.round, dst)
		},
		Deliver: e.deliverRouted,
		OnDrop: func(ref *msgRef, h *route.Header, reason route.DropReason) {
			m := e.msg(ref)
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

// SetHeldKeys installs the protocol's holder enumeration: fn appends to
// dst the item keys slot can answer for at round. Keyed routed walks end
// early at holders, which is how cache replicas cut true network distance.
func (e *Engine) SetHeldKeys(fn func(slot, round int, dst []uint64) []uint64) {
	e.heldKeys = fn
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

// sendToRouter hands the router the walker of one stamped message, which
// ref names. The walk seed is a pure hash of the message identity, so its
// port choices are reproducible at any worker count.
func (e *Engine) sendToRouter(m *Msg, ref msgRef) {
	h := route.Header{
		Target: uint64(m.To),
		Seed:   rng.Hash(e.routeSeed, uint64(uint32(m.sentRound)), uint64(uint32(m.srcSlot)), uint64(m.seq)),
	}
	if m.keyed {
		h.Keyed = true
		h.Key = m.Item
	}
	e.router.Send(&ref, h, m.srcSlot)
}

// deliverRouted is the router's delivery callback: it copies the message
// into the routed source, stamps the true path length, rewrites the
// addressee on holder early-exit, and stages it for slot's shard. The
// copy keeps the message's payload pointer: it is read by this round's
// handlers, while the sender's slab is recycled only the round after (a
// fault-delayed message carries its own cell).
func (e *Engine) deliverRouted(slot int32, ref *msgRef, hops int32) {
	rt := e.routed[0]
	idx := len(rt.out)
	rt.out = append(rt.out, *e.msg(ref))
	m := &rt.out[idx]
	m.Hops = hops
	if id := e.ids[slot]; m.To != id {
		m.To = id // keyed walk ended at a holder: it answers instead
	}
	dsh := e.slotLoc[slot] >> shard.LocalBits
	rt.xfer[dsh] = append(rt.xfer[dsh], routedRef{slot: slot, idx: uint32(idx)})
	e.em.delivered.Inc(0)
}

// runRouted executes the routed-delivery phase: advance every in-flight
// walker over this round's adjacency, staging the deliveries in the
// router's canonical order, then place them into this round's inboxes
// with the oracle's gather. Under the overlay nothing else reaches an
// inbox, so each slot's view is its arena run.
func (e *Engine) runRouted() {
	e.routed[0].reset()
	e.router.Step()
	e.gather(e.routed)
}
