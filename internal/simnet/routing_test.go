package simnet

import (
	"sync"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/telemetry"
)

// routedSpammer sends one message per node per round at the
// current occupant of a fixed slot, tagging every message with a trace id
// so drop accounting is observable end to end.
type routedSpammer struct {
	target int
	mu     sync.Mutex
	got    int
	hops   []int32
}

func (h *routedSpammer) OnJoin(e *Engine, slot int, id NodeID, round int)  {}
func (h *routedSpammer) OnLeave(e *Engine, slot int, id NodeID, round int) {}

func (h *routedSpammer) HandleRound(ctx *Ctx) {
	if n := len(ctx.Inbox); n > 0 {
		h.mu.Lock()
		h.got += n
		for i := range ctx.Inbox {
			h.hops = append(h.hops, ctx.Inbox[i].Hops())
		}
		h.mu.Unlock()
	}
	trace := uint64(ctx.Slot)<<20 | uint64(ctx.Round) + 1
	// Open a trace per message so drop events tally: the tracer only
	// counts events of operations it has seen start.
	if tr := ctx.E.Tracer(); tr != nil {
		tr.Emit(ctx.Shard, telemetry.Event{Trace: trace, Round: int64(ctx.Round), Kind: telemetry.EvOpStart})
	}
	ctx.SetTrace(ctx.SendMsg(ctx.E.IDAt(h.target), 1), trace)
}

func routedConfig(n int, law churn.Law, rc RoutingConfig) Config {
	cfg := testConfig(n, law)
	cfg.Routing = rc
	return cfg
}

func TestRoutedDeliveryArrivesNextRound(t *testing.T) {
	e := New(routedConfig(64, churn.ZeroLaw{}, RoutingConfig{Mode: RoutingOverlay}))
	h := &routedSpammer{target: 3}
	e.RunRound(h) // round 0: 64 sends
	e.RunRound(h) // round 1: every walk completes — oracle latency
	if h.got != 64 {
		t.Fatalf("target received %d messages after one routed round, want 64", h.got)
	}
	forwards := false
	for _, hp := range h.hops {
		if hp > 0 {
			forwards = true
		}
	}
	if !forwards {
		t.Fatal("no delivered message recorded a positive hop count")
	}
	m := e.Metrics()
	rm := e.RouteMetrics()
	if m.MsgsDelivered != rm.Delivered {
		t.Fatalf("teleported deliveries: engine %d, router %d", m.MsgsDelivered, rm.Delivered)
	}
}

// TestRoutedDropsAccountedAndTraced is the engine-level drop audit: under
// heavy churn the spammed slot's occupant keeps departing, so walkers
// addressed to it drop as dead targets. Every drop must show up in the
// router's counters AND as a traced drop event — the books must balance
// exactly, so no routed message is ever silently lost.
func TestRoutedDropsAccountedAndTraced(t *testing.T) {
	e := New(routedConfig(64, churn.FixedLaw{Count: 8}, RoutingConfig{Mode: RoutingOverlay}))
	e.SetTracer(telemetry.NewTracer(e.Telemetry(), 1, 1))
	h := &routedSpammer{target: 3}
	for r := 0; r < 60; r++ {
		e.RunRound(h)
	}
	rm := e.RouteMetrics()
	if rm.DroppedDead == 0 {
		t.Fatal("heavy churn dropped no walker at a departed target")
	}
	drops := rm.DroppedBudget + rm.DroppedDead
	if rm.Sent != rm.Delivered+drops+int64(e.RoutedInFlight()) {
		t.Fatalf("conservation violated: sent %d != delivered %d + drops %d + in-flight %d",
			rm.Sent, rm.Delivered, drops, e.RoutedInFlight())
	}
	// Every message carried a trace id, so every drop must have emitted a
	// trace event: counter equality is the "never silently lost" proof.
	traced := e.Telemetry().CounterValue("dynp2p_trace_drop_events_total")
	if traced != drops {
		t.Fatalf("traced drop events %d != routed drops %d: a drop went unrecorded", traced, drops)
	}
}

func TestParseRoutingMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RoutingMode
		err  bool
	}{
		{"", RoutingOracle, false},
		{"oracle", RoutingOracle, false},
		{"overlay", RoutingOverlay, false},
		{"teleport", RoutingOracle, true},
	} {
		got, err := ParseRoutingMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Fatalf("ParseRoutingMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if RoutingOverlay.String() != "overlay" || RoutingOracle.String() != "oracle" {
		t.Fatal("RoutingMode.String mismatch")
	}
}

// TestOverlayNeedsPowerOfTwoDegree: a hop's port is its hash masked to
// the degree, so New refuses overlay routing at degree 6 and builds the
// same engine under the oracle.
func TestOverlayNeedsPowerOfTwoDegree(t *testing.T) {
	cfg := testConfig(16, churn.ZeroLaw{})
	cfg.Degree = 6
	New(cfg)
	cfg.Routing.Mode = RoutingOverlay
	defer func() {
		if recover() == nil {
			t.Fatal("overlay routing at degree 6 did not panic")
		}
	}()
	New(cfg)
}
