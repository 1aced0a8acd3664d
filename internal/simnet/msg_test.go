package simnet

import (
	"bytes"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"dynp2p/internal/churn"
)

// pointerWords counts the words of t the garbage collector has to scan.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Slice, reflect.String:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestMsgLayout pins the message header: at most 80 bytes (every byte is
// copied once per message by the gather and held in three buffers), one
// pointer word, and the offsets DESIGN.md §6 documents.
func TestMsgLayout(t *testing.T) {
	var m Msg
	if s := unsafe.Sizeof(m); s > 80 {
		t.Errorf("Msg is %d bytes, want <= 80", s)
	}
	if p := pointerWords(reflect.TypeOf(m)); p != 1 {
		t.Errorf("Msg has %d pointer words, want 1", p)
	}
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"From", unsafe.Offsetof(m.From), 0},
		{"To", unsafe.Offsetof(m.To), 8},
		{"Item", unsafe.Offsetof(m.Item), 16},
		{"Aux", unsafe.Offsetof(m.Aux), 24},
		{"Aux2", unsafe.Offsetof(m.Aux2), 32},
		{"Trace", unsafe.Offsetof(m.Trace), 40},
		{"payload", unsafe.Offsetof(m.payload), 48},
		{"Hops", unsafe.Offsetof(m.Hops), 56},
		{"sentRound", unsafe.Offsetof(m.sentRound), 60},
		{"srcSlot", unsafe.Offsetof(m.srcSlot), 64},
		{"seq", unsafe.Offsetof(m.seq), 68},
		{"Kind", unsafe.Offsetof(m.Kind), 72},
		{"keyed", unsafe.Offsetof(m.keyed), 73},
	} {
		if f.got != f.want {
			t.Errorf("Msg.%s at offset %d, DESIGN.md §6 says %d", f.name, f.got, f.want)
		}
	}
}

// Poison payload: what a recycled slab cell holds in the lifetime test. It
// is valid memory, so a stale read shows up as wrong contents, not a crash.
var (
	poisonIDs  = []NodeID{0xdead, 0xdead, 0xdead}
	poisonBlob = []byte("recycled")
)

// poisonSlabs overwrites every cell — the whole capacity — of the slabs
// the coming round is about to recycle, standing in for the next tenant.
func poisonSlabs(e *Engine) {
	for sh := range e.shardOut {
		slab := &e.shardOut[sh].pay[e.round&1]
		cells := slab.cells[:cap(slab.cells)]
		for i := range cells {
			cells[i] = payload{ids: poisonIDs, blob: poisonBlob}
		}
	}
}

// payloadFor is the payload the lifetime test attaches to the message
// (from, round, i): fresh slices, so only the cell can go stale.
func payloadFor(from NodeID, round, i int) ([]NodeID, []byte) {
	ids := []NodeID{from, NodeID(round), NodeID(i)}
	blob := bytes.Repeat([]byte{byte(from), byte(round), byte(i)}, 1+i)
	return ids, blob
}

// payloadChecker sends payload-carrying messages to random nodes every
// round and checks every delivered payload against what was sent.
type payloadChecker struct {
	t        *testing.T
	routed   bool
	verified atomic.Int64
}

func (h *payloadChecker) OnJoin(*Engine, int, NodeID, int)  {}
func (h *payloadChecker) OnLeave(*Engine, int, NodeID, int) {}
func (h *payloadChecker) HandleRound(ctx *Ctx) {
	for i := range ctx.Inbox {
		m := &ctx.Inbox[i]
		ids, blob := payloadFor(m.From, int(m.Aux), int(m.Item))
		if !slices.Equal(m.IDs(), ids) || !bytes.Equal(m.Blob(), blob) {
			h.t.Errorf("round %d: message (from %d, sent %d, #%d) delivered ids %v blob %q, sent ids %v blob %q",
				ctx.Round, m.From, m.Aux, m.Item, m.IDs(), m.Blob(), ids, blob)
		}
		h.verified.Add(1)
	}
	for i := 0; i < 2; i++ {
		to := ctx.E.IDAt(ctx.Rand.Intn(ctx.E.N()))
		var m *Msg
		if h.routed {
			m = ctx.SendRouted(to, 1)
		} else {
			m = ctx.SendMsg(to, 1)
		}
		m.Item, m.Aux = uint64(i), uint64(ctx.Round)
		ids, blob := payloadFor(ctx.ID, ctx.Round, i)
		ctx.SetPayload(m, ids, blob)
	}
}

// longDelay holds half the messages back by 3 to 5 rounds.
type longDelay struct{}

func (longDelay) Fate(_ int, _ *Msg, rnd uint64) (bool, int) {
	if rnd&1 == 0 {
		return false, 0
	}
	return false, 3 + int(rnd>>1%3)
}
func (longDelay) String() string { return "delay half by 3..5" }

// TestPayloadSurvivesSlabReuse checks the payload cells' lifetime rule:
// the fault-delay queue and the overlay walker array keep messages past
// the round their slab is recycled in, so both must have copied the cell
// out. Every slab is poisoned just before reuse; any delivered payload
// that differs from what was sent read a recycled cell.
func TestPayloadSurvivesSlabReuse(t *testing.T) {
	t.Run("fault-delay", func(t *testing.T) {
		cfg := testConfig(256, churn.ZeroLaw{})
		cfg.Fault = longDelay{}
		e := New(cfg)
		h := &payloadChecker{t: t}
		for r := 0; r < 30; r++ {
			poisonSlabs(e)
			e.RunRound(h)
		}
		if d := e.Metrics().MsgsDelayed; d == 0 {
			t.Fatal("no message was delayed")
		}
		if h.verified.Load() == 0 {
			t.Fatal("no payload was delivered")
		}
	})
	t.Run("overlay-parked", func(t *testing.T) {
		e := New(routedConfig(256, churn.ZeroLaw{}, RoutingConfig{Mode: RoutingOverlay, LinkCapacity: 1}))
		h := &payloadChecker{t: t, routed: true}
		for r := 0; r < 30; r++ {
			poisonSlabs(e)
			e.RunRound(h)
		}
		if p := e.RouteMetrics().Parked; p == 0 {
			t.Fatal("no walker parked")
		}
		if h.verified.Load() == 0 {
			t.Fatal("no payload was delivered")
		}
	})
}

// TestSendInPlaceAcrossGrowth has one node send enough messages in one
// HandleRound that the shard's send buffer reallocates under it many
// times, and checks that every message still arrives in order with the
// engine's stamp, the handler's fields and the right bits charged.
func TestSendInPlaceAcrossGrowth(t *testing.T) {
	const sends = 3000
	e := New(testConfig(16, churn.ZeroLaw{}))
	sender, target := e.IDAt(3), e.IDAt(9)
	ids := []NodeID{7, 8, 9}
	var wantBits int64
	var got int
	h := funcHandler(func(ctx *Ctx) {
		if ctx.Round == 0 && ctx.ID == sender {
			grew := 0
			for i := 0; i < sends; i++ {
				before := cap(*ctx.out)
				m := ctx.SendMsg(target, 4)
				if cap(*ctx.out) != before {
					grew++
				}
				m.Item, m.Aux2 = uint64(i), uint64(2*i)
				if i%5 == 0 {
					ctx.SetPayload(m, ids, nil)
				}
				wantBits += int64(m.Bits())
			}
			if grew < 5 {
				t.Errorf("send buffer grew %d times mid-slot, want several", grew)
			}
		}
		if ctx.Round == 1 && ctx.ID == target {
			got = len(ctx.Inbox)
			for i := range ctx.Inbox {
				m := &ctx.Inbox[i]
				wantIDs := []NodeID(nil)
				if i%5 == 0 {
					wantIDs = ids
				}
				if m.From != sender || m.To != target || m.Kind != 4 || m.seq != uint32(i) ||
					m.sentRound != 0 || m.srcSlot != 3 || m.Item != uint64(i) || m.Aux2 != uint64(2*i) ||
					!slices.Equal(m.IDs(), wantIDs) {
					t.Fatalf("inbox[%d] = %+v (ids %v)", i, *m, m.IDs())
				}
			}
		}
	})
	e.Run(h, 2)
	if got != sends {
		t.Fatalf("target received %d messages, want %d", got, sends)
	}
	if m := e.Metrics(); m.BitsSent != wantBits || m.MaxNodeBitsRound != wantBits {
		t.Fatalf("BitsSent %d, MaxNodeBitsRound %d, want both %d", m.BitsSent, m.MaxNodeBitsRound, wantBits)
	}
}

// TestMemoryLedger checks the engine's pull-style memory gauges: all five
// owners report, and the send buffers' figure is their capacity in bytes.
func TestMemoryLedger(t *testing.T) {
	e := New(routedConfig(64, churn.ZeroLaw{}, RoutingConfig{Mode: RoutingOverlay}))
	e.Run(&payloadChecker{t: t, routed: true}, 6)
	e.SetRouting(RoutingConfig{})
	e.Run(&payloadChecker{t: t}, 6)
	got := map[string]int64{}
	for _, mv := range e.Telemetry().Snapshot() {
		got[mv.Name] = mv.Value
	}
	for _, name := range []string{
		"dynp2p_engine_mem_out_bytes", "dynp2p_engine_mem_xfer_bytes",
		"dynp2p_engine_mem_inbox_arena_bytes", "dynp2p_engine_mem_payload_slab_bytes",
		"dynp2p_engine_mem_routed_arena_bytes",
	} {
		if got[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, got[name])
		}
	}
	var want int64
	for sh := range e.shardOut {
		want += int64(cap(e.shardOut[sh].out)+cap(e.shardOut[sh].routed)) * int64(unsafe.Sizeof(Msg{}))
	}
	if got["dynp2p_engine_mem_out_bytes"] != want {
		t.Errorf("out bytes = %d, want %d", got["dynp2p_engine_mem_out_bytes"], want)
	}
}
