package simnet

import (
	"sync"
	"sync/atomic"
	"testing"

	"dynp2p/internal/churn"
)

// pingHandler counts received messages and has every node ping one fixed
// peer each round, producing a steady message flow to perturb.
type pingHandler struct {
	received []int // per-slot receive counts
}

func (h *pingHandler) OnJoin(*Engine, int, NodeID, int)  {}
func (h *pingHandler) OnLeave(*Engine, int, NodeID, int) {}
func (h *pingHandler) HandleRound(ctx *Ctx) {
	h.received[ctx.Slot] += len(ctx.Inbox)
	target := ctx.E.IDAt((ctx.Slot + 1) % ctx.E.N())
	ctx.SendMsg(target, 1)
}

func newFaultEngine(t *testing.T, n int, f FaultModel) (*Engine, *pingHandler) {
	t.Helper()
	e := New(Config{
		N: n, Degree: 8, EdgeMode: EdgesStatic,
		AdversarySeed: 11, ProtocolSeed: 12,
		Law: churn.ZeroLaw{}, Fault: f, Workers: 2,
	})
	return e, &pingHandler{received: make([]int, n)}
}

func totalReceived(h *pingHandler) int {
	t := 0
	for _, c := range h.received {
		t += c
	}
	return t
}

func TestNoFaultModelDeliversEverything(t *testing.T) {
	e, h := newFaultEngine(t, 64, nil)
	e.Run(h, 50)
	m := e.Metrics()
	if m.MsgsFaultDropped != 0 || m.MsgsDelayed != 0 {
		t.Fatalf("fault metrics nonzero without a model: %+v", m)
	}
	// 49 rounds of sends get delivered (the last round's sends are in flight).
	if want := 64 * 49; totalReceived(h) != want {
		t.Fatalf("received %d, want %d", totalReceived(h), want)
	}
}

func TestDropProbabilityObserved(t *testing.T) {
	const n, rounds, p = 64, 200, 0.2
	e, h := newFaultEngine(t, n, DropDelayFaults{DropProb: p})
	e.Run(h, rounds)
	m := e.Metrics()
	got := float64(m.MsgsFaultDropped) / float64(m.MsgsSent)
	if got < p-0.03 || got > p+0.03 {
		t.Fatalf("observed drop rate %.3f, want ~%.2f (%d/%d)", got, p, m.MsgsFaultDropped, m.MsgsSent)
	}
	// Conservation: every send was received, fault-dropped, or is one of
	// the <= n messages still in flight from the final round.
	accounted := int64(totalReceived(h)) + m.MsgsFaultDropped
	if accounted > m.MsgsSent || accounted < m.MsgsSent-int64(n) {
		t.Fatalf("conservation: received %d + dropped %d vs sent %d (in flight <= %d)",
			totalReceived(h), m.MsgsFaultDropped, m.MsgsSent, n)
	}
}

func TestDelayIsBoundedAndEventuallyDelivered(t *testing.T) {
	const n, rounds, maxDelay = 64, 200, 3
	e, h := newFaultEngine(t, n, DropDelayFaults{DelayProb: 0.5, MaxDelay: maxDelay})
	e.Run(h, rounds)
	m := e.Metrics()
	if m.MsgsDelayed == 0 {
		t.Fatal("no messages were delayed at DelayProb 0.5")
	}
	if m.MsgsFaultDropped != 0 {
		t.Fatalf("delay-only model dropped %d messages", m.MsgsFaultDropped)
	}
	// Everything sent must eventually arrive; at most n*(1+maxDelay)
	// messages can still be in flight at the end.
	missing := int(m.MsgsSent) - totalReceived(h)
	if missing < 0 || missing > n*(1+maxDelay) {
		t.Fatalf("%d messages unaccounted for (sent %d, received %d)", missing, m.MsgsSent, totalReceived(h))
	}
}

func TestFaultDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) Metrics {
		e := New(Config{
			N: 48, Degree: 8, EdgeMode: EdgesRerandomize,
			AdversarySeed: 5, ProtocolSeed: 6,
			Strategy: churn.Uniform, Law: churn.FixedLaw{Count: 2},
			Fault:   DropDelayFaults{DropProb: 0.1, DelayProb: 0.3, MaxDelay: 2},
			Workers: workers,
		})
		h := &pingHandler{received: make([]int, 48)}
		e.Run(h, 120)
		return e.Metrics()
	}
	a, b := run(1), run(7)
	if a != b {
		t.Fatalf("metrics differ across worker counts:\n  w=1: %+v\n  w=7: %+v", a, b)
	}
	if a.MsgsFaultDropped == 0 || a.MsgsDelayed == 0 {
		t.Fatalf("fault model inactive: %+v", a)
	}
}

func TestDelayedMessageToChurnedNodeIsDropped(t *testing.T) {
	// With heavy churn and long delays, some delayed messages must find
	// their target gone and be counted as routing drops.
	e := New(Config{
		N: 48, Degree: 8, EdgeMode: EdgesStatic,
		AdversarySeed: 9, ProtocolSeed: 10,
		Strategy: churn.Uniform, Law: churn.FixedLaw{Count: 8},
		Fault: DropDelayFaults{DelayProb: 0.8, MaxDelay: 6},
	})
	h := &pingHandler{received: make([]int, 48)}
	e.Run(h, 150)
	if e.Metrics().MsgsDropped == 0 {
		t.Fatal("expected some delayed messages to outlive their targets")
	}
}

// TestReleaseChurnedTargetDrops is the directed unit test for the release
// path: route, in the round before fault-delayed messages are due, drops
// and counts one whose target has already left, places one to a live
// target in its next-round inbox, and keeps a not-yet-due one queued.
func TestReleaseChurnedTargetDrops(t *testing.T) {
	e := New(Config{
		N: 16, Degree: 8, EdgeMode: EdgesStatic,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
	})
	doomed, survivor := e.IDAt(3), e.IDAt(5)
	e.delayed = append(e.delayed,
		delayedMsg{deliverAt: 4, m: Msg{To: doomed, Kind: 1}},
		delayedMsg{deliverAt: 4, m: Msg{To: survivor, Kind: 2}},
		delayedMsg{deliverAt: 9, m: Msg{To: survivor, Kind: 3}},
	)
	e.placeNewNode(3, 1) // churn the doomed target's slot
	e.round = 3          // the round before the first two are due
	before := e.Metrics()
	e.route()
	if got := e.Metrics().MsgsDropped - before.MsgsDropped; got != 1 {
		t.Fatalf("dropped %d messages, want exactly the churned target's 1", got)
	}
	if len(e.inbox[5]) != 1 || e.inbox[5][0].Kind != 2 {
		t.Fatalf("live target inbox = %+v, want the Kind 2 message", e.inbox[5])
	}
	for s, in := range e.inbox {
		if s != 5 && len(in) != 0 {
			t.Fatalf("slot %d inbox = %+v, want empty", s, in)
		}
	}
	if len(e.delayed) != 1 || e.delayed[0].m.Kind != 3 {
		t.Fatalf("not-yet-due message not retained: %+v", e.delayed)
	}
}

// precedes reports whether a comes before b in the canonical inbox order
// (sentRound, srcSlot, seq).
func precedes(a, b *Msg) bool {
	if a.sentRound != b.sentRound {
		return a.sentRound < b.sentRound
	}
	if a.srcSlot != b.srcSlot {
		return a.srcSlot < b.srcSlot
	}
	return a.seq < b.seq
}

// TestInboxHoldsOnlyOwnMessages: every message a handler reads is addressed
// to it, every inbox is in canonical (sentRound, srcSlot, seq) order, and
// no message is read twice, in both routing modes. A fault-delayed message
// is older than the round's fresh sends, so it must reach the inbox ahead
// of them, and without writing into the arena behind another slot's view.
// The second schedule makes every third round a NopHandler round, which
// sends nothing and drops its inboxes unread: the refs a gather placed
// must be gone by the next one, or it places their messages again.
func TestInboxHoldsOnlyOwnMessages(t *testing.T) {
	const n = 256
	type key struct {
		round, slot int32
		seq         uint32
	}
	for _, mode := range []RoutingMode{RoutingOracle, RoutingOverlay} {
		for _, nopEvery := range []int{0, 3} {
			name := mode.String()
			if nopEvery > 0 {
				name += "/nop-rounds"
			}
			t.Run(name, func(t *testing.T) {
				var read, misaddressed, misordered, twice atomic.Int64
				var mu sync.Mutex
				seen := map[key]bool{}
				h := funcHandler(func(ctx *Ctx) {
					for i := range ctx.Inbox {
						m := &ctx.Inbox[i]
						read.Add(1)
						if m.To != ctx.ID {
							misaddressed.Add(1)
						}
						if i > 0 && !precedes(&ctx.Inbox[i-1], m) {
							misordered.Add(1)
						}
						k := key{m.sentRound, m.srcSlot, m.seq}
						mu.Lock()
						if seen[k] {
							twice.Add(1)
						}
						seen[k] = true
						mu.Unlock()
					}
					if ctx.Rand.Intn(4) == 0 {
						ctx.SendMsg(ctx.E.IDAt(ctx.Rand.Intn(n)), 1)
					}
				})
				e := New(Config{
					N: n, Degree: 8, EdgeMode: EdgesStatic,
					AdversarySeed: 3, ProtocolSeed: 4, Law: churn.ZeroLaw{},
					Fault:   DropDelayFaults{DelayProb: 0.3, MaxDelay: 2},
					Routing: RoutingConfig{Mode: mode},
				})
				for r := 0; r < 60; r++ {
					if nopEvery > 0 && r%nopEvery == nopEvery-1 {
						e.RunRound(NopHandler{})
					} else {
						e.RunRound(h)
					}
				}
				if m := e.Metrics(); read.Load() == 0 || m.MsgsDelayed == 0 {
					t.Fatalf("%d messages read, %d delayed: the test shows nothing", read.Load(), m.MsgsDelayed)
				}
				if got := misaddressed.Load(); got != 0 {
					t.Fatalf("%d of %d messages read were addressed to another node", got, read.Load())
				}
				if got := misordered.Load(); got != 0 {
					t.Fatalf("%d of %d messages read arrived out of canonical order", got, read.Load())
				}
				if got := twice.Load(); got != 0 {
					t.Fatalf("%d of %d messages read had been read before", got, read.Load())
				}
			})
		}
	}
}
