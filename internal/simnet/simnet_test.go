package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dynp2p/internal/churn"
)

func testConfig(n int, law churn.Law) Config {
	return Config{
		N: n, Degree: 8, EdgeMode: EdgesRerandomize,
		AdversarySeed: 1, ProtocolSeed: 2,
		Strategy: churn.Uniform, Law: law,
	}
}

// echoHandler sends one message per round to a fixed partner and counts
// receipts; used to validate delivery semantics.
type echoHandler struct {
	mu       sync.Mutex
	joins    int
	leaves   int
	received map[NodeID]int
	partner  NodeID
}

func (h *echoHandler) OnJoin(e *Engine, slot int, id NodeID, round int) {
	h.joins++
}

func (h *echoHandler) OnLeave(e *Engine, slot int, id NodeID, round int) {
	h.leaves++
}

func (h *echoHandler) HandleRound(ctx *Ctx) {
	h.mu.Lock()
	h.received[ctx.ID] += len(ctx.Inbox)
	h.mu.Unlock()
	if h.partner != 0 {
		ctx.SendMsg(h.partner, 1)
	}
}

func TestInitialJoins(t *testing.T) {
	e := New(testConfig(50, churn.ZeroLaw{}))
	h := &echoHandler{received: make(map[NodeID]int)}
	e.RunRound(h)
	if h.joins != 50 {
		t.Fatalf("round 0 joins = %d, want 50", h.joins)
	}
	if e.Round() != 1 {
		t.Fatalf("round = %d after one RunRound, want 1", e.Round())
	}
}

func TestMessageDelivery(t *testing.T) {
	e := New(testConfig(10, churn.ZeroLaw{}))
	target := e.IDAt(3)
	h := &echoHandler{received: make(map[NodeID]int), partner: target}
	e.RunRound(h) // round 0: everyone sends to target
	e.RunRound(h) // round 1: target receives 10 messages
	if got := h.received[target]; got != 10 {
		t.Fatalf("target received %d messages, want 10", got)
	}
	m := e.Metrics()
	if m.MsgsSent != 20 || m.MsgsDelivered < 10 {
		t.Fatalf("unexpected metrics: %+v", m)
	}
}

func TestMessagesToDeadNodesDropped(t *testing.T) {
	cfg := testConfig(10, churn.FixedLaw{Count: 10}) // full replacement each round
	e := New(cfg)
	target := e.IDAt(0)
	h := &echoHandler{received: make(map[NodeID]int), partner: target}
	e.RunRound(h) // round 0: all send to target
	e.RunRound(h) // round 1: target churned out before delivery
	if got := h.received[target]; got != 0 {
		t.Fatalf("dead target received %d messages", got)
	}
	if e.Metrics().MsgsDropped == 0 {
		t.Fatal("no messages recorded as dropped")
	}
}

func TestChurnReplacesIdentities(t *testing.T) {
	cfg := testConfig(20, churn.FixedLaw{Count: 5})
	e := New(cfg)
	h := &echoHandler{received: make(map[NodeID]int)}
	before := append([]NodeID(nil), e.LiveIDs(nil)...)
	e.RunRound(h) // round 0, no churn
	e.RunRound(h) // round 1, 5 replacements
	after := e.LiveIDs(nil)
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed != 5 {
		t.Fatalf("%d identities changed, want 5", changed)
	}
	if h.leaves != 5 {
		t.Fatalf("leaves = %d, want 5", h.leaves)
	}
	// Old ids must be dead, new ids live.
	for i := range before {
		if before[i] != after[i] {
			if e.IsLive(before[i]) {
				t.Fatal("churned id still live")
			}
			if !e.IsLive(after[i]) {
				t.Fatal("new id not live")
			}
		}
	}
}

func TestSlotOfConsistency(t *testing.T) {
	e := New(testConfig(30, churn.FixedLaw{Count: 3}))
	e.Run(NopHandler{}, 10)
	for s := 0; s < e.N(); s++ {
		id := e.IDAt(s)
		got, ok := e.SlotOf(id)
		if !ok || got != s {
			t.Fatalf("SlotOf(IDAt(%d)) = (%d,%v)", s, got, ok)
		}
	}
}

func TestAgesTracked(t *testing.T) {
	e := New(testConfig(30, churn.ZeroLaw{}))
	e.Run(NopHandler{}, 5)
	for s := 0; s < e.N(); s++ {
		if e.JoinRound(s) != 0 {
			t.Fatalf("join round = %d, want 0", e.JoinRound(s))
		}
	}
}

// recordHandler records the exact per-node inbox sequences for determinism
// comparisons.
type recordHandler struct {
	mu  sync.Mutex
	log map[NodeID][]NodeID // receiver -> senders in delivery order
}

func (h *recordHandler) OnJoin(*Engine, int, NodeID, int)  {}
func (h *recordHandler) OnLeave(*Engine, int, NodeID, int) {}
func (h *recordHandler) HandleRound(ctx *Ctx) {
	if len(ctx.Inbox) > 0 {
		h.mu.Lock()
		for _, m := range ctx.Inbox {
			h.log[ctx.ID] = append(h.log[ctx.ID], m.From)
		}
		h.mu.Unlock()
	}
	// Every node messages 3 pseudo-random live targets.
	for i := 0; i < 3; i++ {
		slot := ctx.Rand.Intn(ctx.E.N())
		ctx.SendMsg(ctx.E.IDAt(slot), 2)
	}
}

func runRecorded(t *testing.T, workers int) map[NodeID][]NodeID {
	t.Helper()
	cfg := testConfig(64, churn.FixedLaw{Count: 4})
	cfg.Workers = workers
	e := New(cfg)
	h := &recordHandler{log: make(map[NodeID][]NodeID)}
	e.Run(h, 8)
	return h.log
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	a := runRecorded(t, 1)
	b := runRecorded(t, 4)
	c := runRecorded(t, 13)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("different receiver sets: %d %d %d", len(a), len(b), len(c))
	}
	for id, seq := range a {
		for _, other := range []map[NodeID][]NodeID{b, c} {
			o := other[id]
			if len(o) != len(seq) {
				t.Fatalf("node %d: inbox lengths differ (%d vs %d)", id, len(seq), len(o))
			}
			for i := range seq {
				if seq[i] != o[i] {
					t.Fatalf("node %d: inbox order differs at %d", id, i)
				}
			}
		}
	}
}

// TestDeterminismUnderChurnAndFaults is the regression net for the
// sort-free canonical inbox order: a 2048-node run under churn AND a
// dropping/delaying fault model (so the delayed-message insertion path is
// exercised) must produce bit-identical per-node delivery sequences and
// metrics at every worker count. CI runs this test with -race to check
// the parallel scatter/gather exchange on every push.
func TestDeterminismUnderChurnAndFaults(t *testing.T) {
	run := func(workers int) (map[NodeID][]NodeID, Metrics) {
		cfg := testConfig(2048, churn.FixedLaw{Count: 64})
		cfg.Workers = workers
		cfg.Fault = DropDelayFaults{DropProb: 0.05, DelayProb: 0.2, MaxDelay: 3}
		e := New(cfg)
		h := &recordHandler{log: make(map[NodeID][]NodeID)}
		e.Run(h, 12)
		return h.log, e.Metrics()
	}
	logA, mA := run(1)
	for _, w := range []int{3, runtime.GOMAXPROCS(0)} {
		logB, mB := run(w)
		if mA != mB {
			t.Fatalf("workers=%d: metrics differ:\n%+v\n%+v", w, mA, mB)
		}
		if len(logA) != len(logB) {
			t.Fatalf("workers=%d: receiver sets differ (%d vs %d)", w, len(logA), len(logB))
		}
		for id, seq := range logA {
			o := logB[id]
			if len(o) != len(seq) {
				t.Fatalf("workers=%d node %d: inbox lengths differ (%d vs %d)", w, id, len(seq), len(o))
			}
			for i := range seq {
				if seq[i] != o[i] {
					t.Fatalf("workers=%d node %d: inbox order differs at %d", w, id, i)
				}
			}
		}
	}
}

// replacedRecorder snapshots ReplacedInRound for every slot from inside a
// round hook, where sharded consumers (the walk soup) query it.
type replacedRecorder struct {
	flags [][]bool
}

func (r *replacedRecorder) StepRound(e *Engine, round int) {
	f := make([]bool, e.N())
	for s := range f {
		f[s] = e.ReplacedInRound(s, round)
	}
	r.flags = append(r.flags, f)
}

func TestReplacedInRoundMatchesChurnedList(t *testing.T) {
	e := New(testConfig(64, churn.FixedLaw{Count: 5}))
	rec := &replacedRecorder{}
	e.AddHook(rec)
	churned := make([][]int, 0, 10)
	for r := 0; r < 10; r++ {
		e.RunRound(NopHandler{})
		churned = append(churned, append([]int(nil), e.ChurnedThisRound()...))
		// Between rounds the query must agree with the churned list when
		// asked about the round that just ran (Round()-1).
		for s := 0; s < e.N(); s++ {
			want := false
			for _, cs := range e.ChurnedThisRound() {
				want = want || cs == s
			}
			if got := e.ReplacedInRound(s, e.Round()-1); got != want {
				t.Fatalf("after round %d slot %d: ReplacedInRound(Round()-1) = %v, want %v", r, s, got, want)
			}
		}
	}
	for r := range churned {
		want := make([]bool, e.N())
		for _, s := range churned[r] {
			want[s] = true
		}
		for s := range want {
			if rec.flags[r][s] != want[s] {
				t.Fatalf("round %d slot %d: ReplacedInRound = %v, churned list says %v",
					r, s, rec.flags[r][s], want[s])
			}
		}
	}
	// Round 0 populates every slot but replaces none.
	for s := 0; s < e.N(); s++ {
		if rec.flags[0][s] {
			t.Fatalf("round 0 slot %d reported as replaced", s)
		}
	}
}

func TestRouteShardCacheAligned(t *testing.T) {
	// Per-shard staging areas must be an exact multiple of the cache line
	// so parallel workers filling adjacent shards never false-share.
	if s := unsafe.Sizeof(routeShard{}); s%64 != 0 {
		t.Fatalf("routeShard is %d bytes, want a multiple of 64", s)
	}
}

func TestSendMsgPayloadBound(t *testing.T) {
	var panicked, sent atomic.Bool
	h := funcHandler(func(ctx *Ctx) {
		if ctx.Slot != 0 || ctx.Round != 0 {
			return
		}
		// The largest expressible payload must go through...
		ctx.SetPayload(ctx.SendMsg(ctx.ID, 1), nil, make([]byte, MaxPayloadLen))
		sent.Store(true)
		// ...and one byte more must be rejected: the 16-bit wire length
		// field cannot express it.
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		ctx.SetPayload(ctx.SendMsg(ctx.ID, 1), nil, make([]byte, MaxPayloadLen+1))
	})
	e := New(testConfig(10, churn.ZeroLaw{}))
	e.RunRound(h)
	if !sent.Load() {
		t.Fatal("MaxPayloadLen-sized blob was rejected")
	}
	if !panicked.Load() {
		t.Fatal("oversized blob did not panic")
	}
}

func TestRunIsReproducible(t *testing.T) {
	a := runRecorded(t, 0)
	b := runRecorded(t, 0)
	for id, seq := range a {
		o := b[id]
		if len(o) != len(seq) {
			t.Fatal("reruns differ")
		}
		for i := range seq {
			if seq[i] != o[i] {
				t.Fatal("reruns differ in inbox order")
			}
		}
	}
}

func TestBitsAccounting(t *testing.T) {
	e := New(testConfig(10, churn.ZeroLaw{}))
	target := e.IDAt(0)
	h := &echoHandler{received: make(map[NodeID]int), partner: target}
	e.RunRound(h)
	m := e.Metrics()
	wantPerMsg := int64((&Msg{}).Bits())
	if m.BitsSent != 10*wantPerMsg {
		t.Fatalf("BitsSent = %d, want %d", m.BitsSent, 10*wantPerMsg)
	}
	if m.MaxNodeBitsRound != wantPerMsg {
		t.Fatalf("MaxNodeBitsRound = %d, want %d", m.MaxNodeBitsRound, wantPerMsg)
	}
}

func TestMsgBits(t *testing.T) {
	m := &Msg{}
	if m.Bits() != 328 {
		t.Fatalf("empty msg bits = %d, want 328", m.Bits())
	}
	m.payload = &payload{ids: make([]NodeID, 5)}
	if m.Bits() != 328+16+320 {
		t.Fatalf("5-id msg bits = %d", m.Bits())
	}
	m.payload.blob = make([]byte, 10)
	if m.Bits() != 328+16+320+16+80 {
		t.Fatalf("blob msg bits = %d", m.Bits())
	}
}

func TestPendingInboxClearedOnChurn(t *testing.T) {
	// A message routed to a slot whose occupant is churned before delivery
	// must not reach the replacement occupant.
	cfg := testConfig(8, churn.FixedLaw{Count: 8})
	e := New(cfg)
	h := &recordHandler{log: make(map[NodeID][]NodeID)}
	e.Run(h, 6)
	// Every receiver in the log must have been live when it received:
	// since all slots churn every round, only round-0 sends (delivered
	// round 1 to... wait, occupants churn at round 1) — nothing should
	// ever be delivered.
	if len(h.log) != 0 {
		t.Fatalf("messages leaked across churn to %d receivers", len(h.log))
	}
	if e.Metrics().MsgsDelivered != 0 {
		t.Fatalf("delivered = %d, want 0", e.Metrics().MsgsDelivered)
	}
}

type hookCounter struct{ calls []int }

func (h *hookCounter) StepRound(e *Engine, round int) { h.calls = append(h.calls, round) }

func TestHooksRunEveryRound(t *testing.T) {
	e := New(testConfig(10, churn.ZeroLaw{}))
	hk := &hookCounter{}
	e.AddHook(hk)
	e.Run(NopHandler{}, 4)
	if len(hk.calls) != 4 {
		t.Fatalf("hook ran %d times, want 4", len(hk.calls))
	}
	for i, r := range hk.calls {
		if r != i {
			t.Fatalf("hook round %d, want %d", r, i)
		}
	}
}

func TestNeighborIDsMatchTopology(t *testing.T) {
	e := New(testConfig(40, churn.ZeroLaw{}))
	var checked bool
	h := funcHandler(func(ctx *Ctx) {
		if ctx.Slot == 7 {
			ids := ctx.NeighborIDs(nil)
			slots := ctx.NeighborSlots()
			if len(ids) != len(slots) {
				t.Error("neighbor id/slot length mismatch")
			}
			for i := range ids {
				if ctx.E.IDAt(int(slots[i])) != ids[i] {
					t.Error("neighbor id mismatch")
				}
			}
			checked = true
		}
	})
	e.RunRound(h)
	if !checked {
		t.Fatal("slot 7 never ran")
	}
}

// funcHandler adapts a function to Handler.
type funcHandler func(ctx *Ctx)

func (funcHandler) OnJoin(*Engine, int, NodeID, int)  {}
func (funcHandler) OnLeave(*Engine, int, NodeID, int) {}
func (f funcHandler) HandleRound(ctx *Ctx)            { f(ctx) }

func BenchmarkMicroEngineRound(b *testing.B) {
	cfg := testConfig(4096, churn.PaperLaw(1, 0.5))
	e := New(cfg)
	h := funcHandler(func(ctx *Ctx) {})
	e.RunRound(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound(h)
	}
}
