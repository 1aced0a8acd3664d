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
		m := ctx.SendMsg(ctx.E.IDAt(ctx.Rand.Intn(ctx.E.N())), 1)
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
		h := &payloadChecker{t: t}
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

// TestMemoryLedger checks the engine's pull-style memory gauges, one
// engine per routing mode: the buffers both modes use report, the other
// mode's delivery buffers stay empty, and the send buffers' figure is
// their capacity in bytes.
func TestMemoryLedger(t *testing.T) {
	for _, tc := range []struct {
		mode       RoutingMode
		used, idle []string
	}{
		{RoutingOracle, []string{"xfer", "inbox_arena"}, []string{"routed_arena"}},
		{RoutingOverlay, []string{"routed_arena"}, []string{"xfer", "inbox_arena"}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			e := New(routedConfig(64, churn.ZeroLaw{}, RoutingConfig{Mode: tc.mode}))
			e.Run(&payloadChecker{t: t}, 6)
			got := map[string]int64{}
			for _, mv := range e.Telemetry().Snapshot() {
				got[mv.Name] = mv.Value
			}
			gauge := func(owner string) string { return "dynp2p_engine_mem_" + owner + "_bytes" }
			for _, owner := range append([]string{"out", "payload_slab"}, tc.used...) {
				if v := got[gauge(owner)]; v <= 0 {
					t.Errorf("%s = %d, want > 0", gauge(owner), v)
				}
			}
			for _, owner := range tc.idle {
				if v := got[gauge(owner)]; v != 0 {
					t.Errorf("%s = %d, want 0: the other mode's buffer", gauge(owner), v)
				}
			}
			var want int64
			for sh := range e.shardOut {
				want += int64(cap(e.shardOut[sh].out)) * 80
			}
			if v := got[gauge("out")]; v != want {
				t.Errorf("out bytes = %d, want %d", v, want)
			}
		})
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// FuzzSendPayload drives the Msg payload API with hostile lengths and
// repeated SetPayload calls through both delivery paths and the fault
// queue: an n=16 run under the oracle, under the overlay with link
// capacity 1 (walkers park), and under the oracle with a drop/delay
// fault. SetPayload must panic exactly when a length exceeds
// MaxPayloadLen or an earlier call on the message attached a non-empty
// cell (an empty first call attaches nothing), every delivered payload
// must be the one attached, BitsSent must be the sum of the sends' Bits,
// and every message sent must be delivered, dropped, still delayed or
// still walking.
//
// Input: 3 bytes per send, one send per node per round for 4 rounds, then
// 4 quiet rounds. Byte 0: bit 0 SendKeyed, bits 1-2 the addressee (self,
// nobody, another node), bit 3 a second SetPayload call. Bytes 1 and 2:
// the two calls' length classes, ids in the low nibble, blob in the high.
func FuzzSendPayload(f *testing.F) {
	// TestSendMsgPayloadBound's two cases: a self-addressed MaxPayloadLen
	// blob goes through, one byte more panics.
	f.Add([]byte{0, 0x40, 0})
	f.Add([]byte{0, 0x50, 0})
	lens := [...]int{0, 1, 3, 17, MaxPayloadLen, MaxPayloadLen + 1}
	ids := make([]NodeID, MaxPayloadLen+8)
	blob := make([]byte, MaxPayloadLen+8)
	for i := range ids {
		ids[i], blob[i] = NodeID(i), byte(i*7)
	}
	// payloadOf cuts one call's payload out of the shared buffers at an
	// offset that differs between neighbouring sends, so a cell delivered
	// to the wrong message shows up as wrong contents.
	payloadOf := func(op int, class byte) ([]NodeID, []byte) {
		o := op % 8
		return ids[o : o+lens[(class&15)%6]], blob[o : o+lens[(class>>4)%6]]
	}
	base := testConfig(16, churn.FixedLaw{Count: 1})
	base.Workers = 1
	overlay, lossy := base, base
	overlay.Routing = RoutingConfig{Mode: RoutingOverlay, LinkCapacity: 1}
	lossy.Fault = DropDelayFaults{DropProb: 0.1, DelayProb: 0.5, MaxDelay: 3}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []Config{base, overlay, lossy} {
			e := New(cfg)
			type cell struct {
				ids  []NodeID
				blob []byte
			}
			attached := map[uint64]cell{} // by Item, which numbers the sends
			var wantBits, seen int64
			op, rest := 0, data
			h := funcHandler(func(ctx *Ctx) {
				for i := range ctx.Inbox {
					m := &ctx.Inbox[i]
					if want := attached[m.Item]; !slices.Equal(m.IDs(), want.ids) || !bytes.Equal(m.Blob(), want.blob) {
						t.Errorf("send %d delivered %d ids, %d blob bytes; attached %d, %d",
							m.Item, len(m.IDs()), len(m.Blob()), len(want.ids), len(want.blob))
					}
					seen++
				}
				if ctx.Round >= 4 || len(rest) < 3 {
					return
				}
				b := rest[:3]
				rest = rest[3:]
				to := ctx.ID
				switch b[0] >> 1 & 3 {
				case 1:
					to = 0
				case 2, 3:
					to = ctx.E.IDAt((ctx.Slot + 1 + int(b[2])) % ctx.E.N())
				}
				var m *Msg
				if b[0]&1 != 0 {
					m = ctx.SendKeyed(to, 1)
				} else {
					m = ctx.SendMsg(to, 1)
				}
				m.Item = uint64(op)
				calls := b[1:2]
				if b[0]&8 != 0 {
					calls = b[1:3]
				}
				var got cell
				for _, class := range calls {
					ids, blob := payloadOf(op, class)
					full := len(got.ids) > 0 || len(got.blob) > 0
					want := len(ids) > MaxPayloadLen || len(blob) > MaxPayloadLen || full
					if p := panics(func() { ctx.SetPayload(m, ids, blob) }); p != want {
						t.Errorf("send %d: SetPayload(%d ids, %d blob bytes) with a cell attached %v: panicked %v, want %v",
							op, len(ids), len(blob), full, p, want)
					}
					if !want && (len(ids) > 0 || len(blob) > 0) {
						got = cell{ids, blob}
					}
				}
				attached[m.Item] = got
				wantBits += int64(m.Bits())
				op++
			})
			e.Run(h, 8)
			m, rm := e.Metrics(), e.RouteMetrics()
			if m.BitsSent != wantBits {
				t.Errorf("BitsSent %d, sends' Bits sum to %d", m.BitsSent, wantBits)
			}
			if seen != m.MsgsDelivered {
				t.Errorf("handlers saw %d messages, engine delivered %d", seen, m.MsgsDelivered)
			}
			routedDrops := rm.DroppedBudget + rm.DroppedQueueFull + rm.DroppedChurn + rm.DroppedDead
			if acc := m.MsgsDelivered + m.MsgsDropped + m.MsgsFaultDropped + int64(len(e.delayed)) +
				routedDrops + int64(e.RoutedInFlight()); m.MsgsSent != acc {
				t.Errorf("%s: sent %d, accounted %d (%+v, route %+v, %d delayed)",
					cfg.Routing.Mode, m.MsgsSent, acc, m, rm, len(e.delayed))
			}
		}
	})
}
