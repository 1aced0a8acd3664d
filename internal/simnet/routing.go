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
// merge stages the deliveries, and the gather right after it places them
// — the same gather that places the oracle's staged sends after churn,
// in the deliver phase.

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

// initRouter builds the overlay router and installs the engine-side
// callbacks on it.
func (e *Engine) initRouter() {
	e.router = route.New[msgRef](e.reg, e.cfg.N, route.Params{
		Budget: route.AutoBudget(e.cfg.N, e.cfg.Degree),
		Seed:   rng.Hash(e.cfg.ProtocolSeed, 0x6f7665726c6179), // "overlay"
	}, e.crew)
	e.router.SetEnv(route.Env[msgRef]{
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
			trace := m.Trace()
			if trace == 0 || e.tracer == nil {
				return
			}
			e.tracer.Emit(0, telemetry.Event{
				Trace: trace, Round: int64(e.round), Kind: telemetry.EvDrop,
				Msg: m.Kind, From: uint64(m.From), To: uint64(m.To),
				Item: m.Item, Aux: int64(reason),
			})
		},
	})
}

// msg returns the message ref names.
func (e *Engine) msg(ref *msgRef) *Msg { return e.sources[ref.src].out.At(int(ref.idx)) }

// RouteMetrics returns the overlay router's counters (zero in oracle
// mode).
func (e *Engine) RouteMetrics() route.Metrics {
	if e.router == nil {
		return route.Metrics{}
	}
	return e.router.Metrics()
}

// RouteLoad returns the overlay router's last busiest link and hop
// histogram (zero in oracle mode).
func (e *Engine) RouteLoad() route.Load {
	if e.router == nil {
		return route.Load{}
	}
	return e.router.Load()
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

// deliverRouted is the router's delivery callback: it stamps the true
// path length into a traced message's cell (only a hop event reads it),
// rewrites the addressee on holder early-exit, and stages a ref to the
// message in its source for slot's shard, as the oracle's scatter does.
// The message keeps its payload pointer: it is read by this round's
// handlers, while the sender's slab is recycled only the round after (a
// fault-delayed message carries its own cell).
func (e *Engine) deliverRouted(slot int32, ref *msgRef, hops int32) {
	m := e.msg(ref)
	if p := m.payload; p != nil && p.trace != 0 {
		p.hops = hops
	}
	if id := e.ids[slot]; m.To != id {
		m.To = id // keyed walk ended at a holder: it answers instead
	}
	src := &e.sources[ref.src]
	dsh := e.slotLoc[slot] >> shard.LocalBits
	src.xfer[dsh] = append(src.xfer[dsh], routedRef{slot: slot, idx: ref.idx})
}
