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

// TestMsgLayout pins the message header: exactly 64 bytes on a 64-bit
// build, one cache line (every byte is copied once per message by the
// gather and held in the send buffer and the inbox arena, in both routing
// modes), one pointer word, and the offsets DESIGN.md §6 documents; and
// the payload cell that holds the id list, the blob and the trace tag at
// 64 bytes.
func TestMsgLayout(t *testing.T) {
	var m Msg
	word := unsafe.Sizeof(uintptr(0))
	if s, want := unsafe.Sizeof(m), 56+word; s != want {
		t.Errorf("Msg is %d bytes, want %d", s, want)
	}
	if p := pointerWords(reflect.TypeOf(m)); p != 1 {
		t.Errorf("Msg has %d pointer words, want 1", p)
	}
	if s := unsafe.Sizeof(payload{}); s > 64 {
		t.Errorf("payload cell is %d bytes, want <= 64", s)
	}
	// The fields after the payload pointer sit one pointer further on: the
	// 64-bit offsets DESIGN.md §6 gives, 4 bytes earlier on a 32-bit build.
	tail := 40 + word
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"From", unsafe.Offsetof(m.From), 0},
		{"To", unsafe.Offsetof(m.To), 8},
		{"Item", unsafe.Offsetof(m.Item), 16},
		{"Aux", unsafe.Offsetof(m.Aux), 24},
		{"Aux2", unsafe.Offsetof(m.Aux2), 32},
		{"payload", unsafe.Offsetof(m.payload), 40},
		{"sentRound", unsafe.Offsetof(m.sentRound), tail},
		{"srcSlot", unsafe.Offsetof(m.srcSlot), tail + 4},
		{"seq", unsafe.Offsetof(m.seq), tail + 8},
		{"Kind", unsafe.Offsetof(m.Kind), tail + 12},
		{"keyed", unsafe.Offsetof(m.keyed), tail + 13},
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
			cells[i] = payload{ids: poisonIDs, blob: poisonBlob, trace: 0xdead, hops: -1}
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

// TestPayloadSurvivesSlabReuse checks the payload cells' lifetime rule.
// The fault-delay queue keeps messages past the round their slab is
// recycled in, so it must have moved the cell out; an overlay walker is
// delivered the round after its send and keeps the sender's cell, which
// must still be live when that round's handlers read it. Every slab is
// poisoned just before reuse; any delivered payload that differs from
// what was sent read a recycled cell.
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
	// A sent blob is never modified (SetPayload), so the delay queue moves
	// only the cell: a delayed message arrives with the sender's own array.
	t.Run("delayed-blob-shared", func(t *testing.T) {
		cfg := testConfig(64, churn.ZeroLaw{})
		cfg.Fault = longDelay{}
		e := New(cfg)
		sender := e.IDAt(5)
		const rounds = 30
		var sent [rounds][]byte
		var checked, late atomic.Int64
		h := funcHandler(func(ctx *Ctx) {
			for i := range ctx.Inbox {
				m := &ctx.Inbox[i]
				blob, want := m.Blob(), sent[m.Aux]
				if len(blob) == 0 || &blob[0] != &want[0] {
					t.Errorf("round %d: a blob sent in round %d arrived as another array", ctx.Round, m.Aux)
				} else if !bytes.Equal(blob, bytes.Repeat([]byte{byte(m.Aux)}, 16)) {
					t.Errorf("round %d: a blob sent in round %d reads %v", ctx.Round, m.Aux, blob)
				}
				checked.Add(1)
				if ctx.Round > int(m.Aux)+1 {
					late.Add(1)
				}
			}
			if ctx.ID != sender {
				return
			}
			sent[ctx.Round] = bytes.Repeat([]byte{byte(ctx.Round)}, 16)
			for i := 0; i < 8; i++ {
				m := ctx.SendMsg(ctx.E.IDAt(ctx.Rand.Intn(ctx.E.N())), 1)
				m.Aux = uint64(ctx.Round)
				ctx.SetPayload(m, nil, sent[ctx.Round])
			}
		})
		for r := 0; r < rounds; r++ {
			poisonSlabs(e)
			e.RunRound(h)
		}
		if d := e.Metrics().MsgsDelayed; d == 0 || late.Load() == 0 || checked.Load() == 0 {
			t.Fatalf("%d messages delayed, %d checked, %d of them late", d, checked.Load(), late.Load())
		}
	})
	// A header-only traced message has a cell for its tag alone, and the
	// delay queue must move that cell too.
	t.Run("delayed-trace", func(t *testing.T) {
		cfg := testConfig(64, churn.ZeroLaw{})
		cfg.Fault = longDelay{}
		e := New(cfg)
		var checked, late atomic.Int64
		h := funcHandler(func(ctx *Ctx) {
			for i := range ctx.Inbox {
				m := &ctx.Inbox[i]
				if got, want := m.Trace(), m.Aux<<16|uint64(m.From); got != want {
					t.Errorf("round %d: a message sent in round %d by %d arrived with trace %#x, want %#x",
						ctx.Round, m.Aux, m.From, got, want)
				}
				if m.IDs() != nil || m.Blob() != nil || m.Hops() != 0 {
					t.Errorf("round %d: a header-only message arrived with %d ids, %d blob bytes, %d hops",
						ctx.Round, len(m.IDs()), len(m.Blob()), m.Hops())
				}
				checked.Add(1)
				if ctx.Round > int(m.Aux)+1 {
					late.Add(1)
				}
			}
			m := ctx.SendMsg(ctx.E.IDAt(ctx.Rand.Intn(ctx.E.N())), 1)
			m.Aux = uint64(ctx.Round)
			ctx.SetTrace(m, uint64(ctx.Round)<<16|uint64(ctx.ID))
		})
		for r := 0; r < 30; r++ {
			poisonSlabs(e)
			e.RunRound(h)
		}
		if d := e.Metrics().MsgsDelayed; d == 0 || late.Load() == 0 || checked.Load() == 0 {
			t.Fatalf("%d messages delayed, %d checked, %d of them late", d, checked.Load(), late.Load())
		}
	})
	t.Run("overlay", func(t *testing.T) {
		e := New(routedConfig(256, churn.ZeroLaw{}, RoutingConfig{Mode: RoutingOverlay}))
		h := &payloadChecker{t: t}
		for r := 0; r < 30; r++ {
			poisonSlabs(e)
			e.RunRound(h)
		}
		if d := e.RouteMetrics().Delivered; d == 0 || h.verified.Load() != d {
			t.Fatalf("router delivered %d messages, handlers checked %d", d, h.verified.Load())
		}
	})
}

// TestTraceSharesThePayloadCell checks the trace tag's place in the cell:
// a traced message is charged exactly what the untraced one is, to the
// sender and to its kind; SetTrace before or after SetPayload leaves one
// cell holding the ids, the blob and the tag; a trace id of 0 makes no
// cell; and a second id or blob attach still panics.
func TestTraceSharesThePayloadCell(t *testing.T) {
	e := New(testConfig(16, churn.ZeroLaw{}))
	sender, target := e.IDAt(3), e.IDAt(9)
	ids, blob := []NodeID{7, 8, 9}, []byte("piece")
	h := funcHandler(func(ctx *Ctx) {
		if ctx.Round != 0 || ctx.ID != sender {
			return
		}
		m := ctx.SendMsg(target, 1)
		ctx.SetPayload(m, ids, blob)
		m = ctx.SendMsg(target, 2)
		ctx.SetPayload(m, ids, blob)
		ctx.SetTrace(m, 77)
		m = ctx.SendMsg(target, 3)
		ctx.SetTrace(m, 77)
		ctx.SetPayload(m, ids, blob)
		ctx.SetTrace(ctx.SendMsg(target, 4), 0)
		m = ctx.SendMsg(target, 5)
		ctx.SetTrace(m, 77)
		ctx.SetPayload(m, nil, nil)

		// The buffer may have moved under the sends: read them back from it.
		out := *ctx.out
		out = out[len(out)-5:]
		plain, after, before, bare, tagged := &out[0], &out[1], &out[2], &out[3], &out[4]
		if bare.payload != nil {
			t.Error("SetTrace with id 0 attached a cell")
		}
		for _, m := range []*Msg{after, before} {
			if m.Trace() != 77 || !slices.Equal(m.IDs(), ids) || !bytes.Equal(m.Blob(), blob) {
				t.Errorf("kind %d: cell holds trace %d, ids %v, blob %q", m.Kind, m.Trace(), m.IDs(), m.Blob())
			}
			if m.Bits() != plain.Bits() {
				t.Errorf("kind %d: traced message is %d bits, untraced %d", m.Kind, m.Bits(), plain.Bits())
			}
			if !panics(func() { ctx.SetPayload(m, nil, blob) }) {
				t.Errorf("kind %d: a second SetPayload did not panic", m.Kind)
			}
		}
		if tagged.Trace() != 77 || tagged.Bits() != bare.Bits() {
			t.Errorf("header-only traced message: trace %d, %d bits, want 77 and %d", tagged.Trace(), tagged.Bits(), bare.Bits())
		}
		if got := len(ctx.pay.cells); got != 4 {
			t.Errorf("%d cells taken, want 4: one per traced or payload-carrying message", got)
		}
	})
	e.Run(h, 2)
	for kind := uint8(2); kind <= 3; kind++ {
		if got, want := e.KindCount(kind), e.KindCount(1); got != want {
			t.Errorf("kind %d tally %+v, untraced kind 1 %+v", kind, got, want)
		}
	}
	if got, want := e.KindCount(5), e.KindCount(4); got != want {
		t.Errorf("traced header-only tally %+v, untraced %+v", got, want)
	}
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
// expectation for both routing modes, with and without a delaying fault
// model: every buffer family reports — the ref buffers and inbox arenas
// too, as both modes stage in the sending source and place through gather
// — and the send and ref buffers' figures are their capacity in bytes
// summed over every source, the released source included.
func TestMemoryLedger(t *testing.T) {
	for _, mode := range []RoutingMode{RoutingOracle, RoutingOverlay} {
		for _, fault := range []FaultModel{nil, longDelay{}} {
			name := mode.String()
			if fault != nil {
				name += "/delay"
			}
			t.Run(name, func(t *testing.T) {
				cfg := routedConfig(64, churn.ZeroLaw{}, RoutingConfig{Mode: mode})
				cfg.Fault = fault
				e := New(cfg)
				e.Run(&payloadChecker{t: t}, 6)
				got := map[string]int64{}
				for _, mv := range e.Telemetry().Snapshot() {
					got[mv.Name] = mv.Value
				}
				gauge := func(owner string) string { return "dynp2p_engine_mem_" + owner + "_bytes" }
				for _, owner := range []string{"out", "xfer", "inbox_arena", "payload_slab"} {
					if v := got[gauge(owner)]; v <= 0 {
						t.Errorf("%s = %d, want > 0", gauge(owner), v)
					}
				}
				var out, xfer int64
				for i := range e.sources {
					out += int64(cap(e.sources[i].out)) * int64(unsafe.Sizeof(Msg{}))
					for _, refs := range e.sources[i].xfer {
						xfer += int64(cap(refs)) * 8
					}
				}
				if v := got[gauge("out")]; v != out {
					t.Errorf("out bytes = %d, want %d", v, out)
				}
				if v := got[gauge("xfer")]; v != xfer {
					t.Errorf("xfer bytes = %d, want %d", v, xfer)
				}
				if released := cap(e.sources[0].out); (fault != nil) != (released > 0) {
					t.Errorf("released source holds room for %d messages with fault model %v", released, fault)
				}
			})
		}
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// FuzzSendPayload drives the Msg payload API with hostile lengths and
// repeated SetPayload calls through both routing modes and the fault
// queue: an n=16 run, one worker and one replacement a round, under the
// oracle and under the overlay (walkers on the default budget, keyed sends
// ending at no holder), each with reliable links and with a drop/delay
// fault — where a released message takes the fresh sends' path.
// SetPayload must panic exactly when a length exceeds MaxPayloadLen or an
// earlier call on the message attached a non-empty cell (an empty first
// call attaches nothing), every delivered payload must be the one
// attached, BitsSent must be the sum of the sends' Bits, and every
// message sent must be delivered, dropped, still delayed or still
// walking.
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
	overlay.Routing = RoutingConfig{Mode: RoutingOverlay}
	lossy.Fault = DropDelayFaults{DropProb: 0.1, DelayProb: 0.5, MaxDelay: 3}
	lossyOverlay := lossy
	lossyOverlay.Routing = overlay.Routing

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []Config{base, overlay, lossy, lossyOverlay} {
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
			routedDrops := rm.DroppedBudget + rm.DroppedDead
			if acc := m.MsgsDelivered + m.MsgsDropped + m.MsgsFaultDropped + int64(len(e.delayed)) +
				routedDrops + int64(e.RoutedInFlight()); m.MsgsSent != acc {
				t.Errorf("%s: sent %d, accounted %d (%+v, route %+v, %d delayed)",
					cfg.Routing.Mode, m.MsgsSent, acc, m, rm, len(e.delayed))
			}
		}
	})
}
