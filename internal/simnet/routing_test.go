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
			h.hops = append(h.hops, ctx.Inbox[i].Hops)
		}
		h.mu.Unlock()
	}
	trace := uint64(ctx.Slot)<<20 | uint64(ctx.Round) + 1
	// Open a trace per message so drop events tally: the tracer only
	// counts events of operations it has seen start.
	if tr := ctx.E.Tracer(); tr != nil {
		tr.Emit(ctx.Shard, telemetry.Event{Trace: trace, Round: int64(ctx.Round), Kind: telemetry.EvOpStart})
	}
	ctx.SendMsg(ctx.E.IDAt(h.target), 1).Trace = trace
}

func routedConfig(n int, law churn.Law, rc RoutingConfig) Config {
	cfg := testConfig(n, law)
	cfg.Routing = rc
	return cfg
}

func TestRoutedDeliveryArrivesNextRound(t *testing.T) {
	e := New(routedConfig(64, churn.ZeroLaw{}, RoutingConfig{Mode: RoutingOverlay, WalkBudget: 4096}))
	h := &routedSpammer{target: 3}
	e.RunRound(h) // round 0: 64 sends
	e.RunRound(h) // round 1: uncongested walks complete — oracle latency
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

// TestRoutedChurnedQueueDropAccountedAndTraced is the engine-level drop
// audit: under heavy churn with link capacity 1, walkers park and their
// slots churn. Every such casualty must show up in the churn-drop counter
// AND as a traced drop event — the books must balance exactly, so no
// routed message is ever silently lost.
func TestRoutedChurnedQueueDropAccountedAndTraced(t *testing.T) {
	e := New(routedConfig(64, churn.FixedLaw{Count: 8},
		RoutingConfig{Mode: RoutingOverlay, WalkBudget: 256, LinkCapacity: 1, QueueLimit: 4}))
	e.SetTracer(telemetry.NewTracer(e.Telemetry(), 1, 1))
	h := &routedSpammer{target: 3}
	for r := 0; r < 60; r++ {
		e.RunRound(h)
	}
	rm := e.RouteMetrics()
	if rm.Parked == 0 {
		t.Fatal("capacity 1 produced no queueing; the congestion leg is inert")
	}
	if rm.DroppedChurn == 0 {
		t.Fatal("heavy churn dropped no queued walkers")
	}
	drops := rm.DroppedBudget + rm.DroppedQueueFull + rm.DroppedChurn + rm.DroppedDead
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
