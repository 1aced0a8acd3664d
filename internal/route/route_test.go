package route

import (
	"encoding/binary"
	"testing"

	"dynp2p/internal/graph"
	"dynp2p/internal/telemetry"
)

// testMsg is the payload type used by the unit tests; the router is
// generic and never inspects it.
type testMsg struct{ id int }

// harness wires a Router[testMsg] over a hand-built directed-cycle graph
// (both ports of slot v point at v+1 mod n), so every walk's path is a
// deterministic corridor and hop counts are exact.
type harness struct {
	g         *graph.Graph
	r         *Router[testMsg]
	delivered []delivery
	drops     []droppedMsg
	dropHops  []int32          // parallel to drops: the header's hop count at the drop
	holders   map[int32]uint64 // slot -> held key
	dead      map[uint64]bool  // ids SlotOf refuses to resolve
}

type delivery struct {
	slot int32
	id   int
	hops int32
}

type droppedMsg struct {
	id     int
	reason DropReason
}

// ids are slot+1 so that id 0 keeps its "no target" meaning.
func newHarness(t *testing.T, n int, p Params) *harness {
	t.Helper()
	g := graph.New(n, 2)
	for v := 0; v < n; v++ {
		g.SetPort(v, 0, int32((v+1)%n))
		g.SetPort(v, 1, int32((v+1)%n))
	}
	h := &harness{
		g:       g,
		holders: map[int32]uint64{},
		dead:    map[uint64]bool{},
	}
	h.r = New[testMsg](telemetry.NewRegistry(), n, p, 1)
	h.r.SetEnv(Env[testMsg]{
		Graph: func() *graph.Graph { return h.g },
		SlotOf: func(id uint64) (int32, bool) {
			if h.dead[id] || id == 0 || id > uint64(n) {
				return 0, false
			}
			return int32(id - 1), true
		},
		Holder: func(slot int32, key uint64) bool { return h.holders[slot] == key && key != 0 },
		Deliver: func(slot int32, m *testMsg, hops int32) {
			h.delivered = append(h.delivered, delivery{slot, m.id, hops})
		},
		OnDrop: func(m *testMsg, hd *Header, reason DropReason) {
			h.drops = append(h.drops, droppedMsg{m.id, reason})
			h.dropHops = append(h.dropHops, hd.Hops)
		},
	})
	return h
}

func (h *harness) send(id, from, targetSlot int, keyed bool, key uint64) {
	h.r.Send(&testMsg{id: id}, Header{
		Target: uint64(targetSlot + 1), Keyed: keyed, Key: key,
		Seed: uint64(id) * 0x9e3779b97f4a7c15,
	}, int32(from))
}

// conserve asserts the router's books balance: every message handed in is
// delivered, dropped (with a reason), or still in flight.
func (h *harness) conserve(t *testing.T) {
	t.Helper()
	m := h.r.Metrics()
	drops := m.DroppedBudget + m.DroppedDead
	if m.Sent != m.Delivered+drops+int64(h.r.InFlight()) {
		t.Fatalf("conservation violated: sent %d != delivered %d + drops %d + in-flight %d",
			m.Sent, m.Delivered, drops, h.r.InFlight())
	}
	if int64(len(h.drops)) != drops {
		t.Fatalf("OnDrop saw %d drops, counters say %d: a message was silently lost", len(h.drops), drops)
	}
}

func TestWalkDeliversAlongEdges(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 16})
	// Slot 0 -> slot 3 on the cycle: forwards 0->1, 1->2, then 2's
	// neighbor scan spots the target — 3 hops exactly.
	h.send(1, 0, 3, false, 0)
	h.r.Step()
	if len(h.delivered) != 1 || h.delivered[0] != (delivery{slot: 3, id: 1, hops: 3}) {
		t.Fatalf("delivery = %+v, want slot 3 in 3 hops", h.delivered)
	}
	m := h.r.Metrics()
	if m.Forwards != 3 || m.Delivered != 1 || m.MaxLinkLoad != 1 {
		t.Fatalf("metrics %+v", m)
	}
	h.conserve(t)
}

func TestSelfAddressedDeliversWithoutForwarding(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 16})
	h.send(1, 5, 5, false, 0)
	h.r.Step()
	if len(h.delivered) != 1 || h.delivered[0].hops != 0 {
		t.Fatalf("delivery = %+v, want 0 hops", h.delivered)
	}
	if h.r.Metrics().Forwards != 0 {
		t.Fatal("self-delivery must not forward")
	}
}

func TestKeyedWalkStopsAtHolder(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 16})
	h.holders[2] = 77
	// Target slot 6 is 6 hops away, but slot 2 holds the key: the walk
	// must end there after 2 hops (slot 1's neighbor scan spots it).
	h.send(1, 0, 6, true, 77)
	h.r.Step()
	if len(h.delivered) != 1 || h.delivered[0] != (delivery{slot: 2, id: 1, hops: 2}) {
		t.Fatalf("delivery = %+v, want holder slot 2 in 2 hops", h.delivered)
	}
}

func TestKeyedWalkPrefersExactTargetOverHolderNeighbor(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 16})
	g := graph.New(8, 2)
	// Slot 0 sees both the holder (slot 2) and the target (slot 3).
	for v := 0; v < 8; v++ {
		g.SetPort(v, 0, int32((v+1)%8))
		g.SetPort(v, 1, int32((v+1)%8))
	}
	g.SetPort(0, 0, 2)
	g.SetPort(0, 1, 3)
	// The router spots an adjacent target from the target's side (the
	// reciprocal-port precondition), so the 0–3 edge needs its back port;
	// the forced corridors of the other tests never consult it.
	g.SetPort(3, 0, 0)
	h.g = g
	h.holders[2] = 77
	h.send(1, 0, 3, true, 77)
	h.r.Step()
	if len(h.delivered) != 1 || h.delivered[0].slot != 3 {
		t.Fatalf("delivery = %+v, want exact target slot 3", h.delivered)
	}
}

func TestBudgetExhaustionDrops(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 2})
	h.send(1, 0, 5, false, 0) // 5 hops needed, budget 2
	h.r.Step()
	if len(h.delivered) != 0 {
		t.Fatalf("unexpected delivery %+v", h.delivered)
	}
	if len(h.drops) != 1 || h.drops[0].reason != DropBudget {
		t.Fatalf("drops = %+v, want one DropBudget", h.drops)
	}
	if m := h.r.Metrics(); m.DroppedBudget != 1 || m.Forwards != 2 {
		t.Fatalf("metrics %+v", m)
	}
	h.conserve(t)
}

// TestDeadTargetDropsAtPickup: a walk whose addressee has departed drops
// before its first forward, and its header reports the hops it took —
// none — whatever the sender left in Hops.
func TestDeadTargetDropsAtPickup(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 16})
	h.dead[4] = true // id 4 = slot 3's occupant, departed
	h.r.Send(&testMsg{id: 1}, Header{Target: 4, Hops: 7, Seed: 1}, 0)
	h.r.Step()
	if len(h.drops) != 1 || h.drops[0].reason != DropDead {
		t.Fatalf("drops = %+v, want one DropDead", h.drops)
	}
	if h.dropHops[0] != 0 {
		t.Fatalf("dead-target drop reports %d hops, want 0", h.dropHops[0])
	}
	if h.r.Metrics().Forwards != 0 {
		t.Fatal("dead-target walk must not burn forwards")
	}
	h.conserve(t)
}

// TestUnaddressedIdWalkDropsAtPickup pins the no-target fix: a pure id
// walk to Target 0 has nowhere to arrive, so it is a dead-target drop at
// pickup — as oracle mode discards mail to id 0 in one round — instead of
// wandering its whole budget, loading links, and being booked as a
// budget drop.
func TestUnaddressedIdWalkDropsAtPickup(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 16})
	h.r.Send(&testMsg{id: 1}, Header{Target: 0, Seed: 1}, 0)
	h.send(2, 0, 2, false, 0) // behind it on the same links
	h.r.Step()
	if len(h.drops) != 1 || h.drops[0] != (droppedMsg{1, DropDead}) {
		t.Fatalf("drops = %+v, want message 1 as DropDead", h.drops)
	}
	if len(h.delivered) != 1 || h.delivered[0] != (delivery{slot: 2, id: 2, hops: 2}) {
		t.Fatalf("delivery = %+v, want message 2 at slot 2", h.delivered)
	}
	if m := h.r.Metrics(); m.DroppedDead != 1 || m.DroppedBudget != 0 || m.Forwards != 2 || m.MaxLinkLoad != 1 {
		t.Fatalf("metrics %+v", m)
	}
	h.conserve(t)
}

func TestKeyedWalkSurvivesDeadTarget(t *testing.T) {
	h := newHarness(t, 8, Params{Budget: 16})
	h.dead[7] = true // addressee departed...
	h.holders[2] = 77
	h.send(1, 0, 6, true, 77) // ...but the holder at slot 2 can answer
	h.r.Step()
	if len(h.delivered) != 1 || h.delivered[0].slot != 2 {
		t.Fatalf("delivery = %+v, want holder slot 2", h.delivered)
	}
}

func TestWalkIsDeterministic(t *testing.T) {
	run := func() []delivery {
		h := newHarness(t, 16, Params{Budget: 64, Seed: 99})
		// Random-port walks: break the corridor so port choice matters.
		g := graph.New(16, 2)
		for v := 0; v < 16; v++ {
			g.SetPort(v, 0, int32((v+1)%16))
			g.SetPort(v, 1, int32((v+5)%16))
		}
		h.g = g
		for id := 1; id <= 8; id++ {
			h.send(id, id%16, (id*7)%16, false, 0)
		}
		for s := 0; s < 4; s++ {
			h.r.Step()
		}
		return h.delivered
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no deliveries")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at delivery %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAutoBudget(t *testing.T) {
	if b := AutoBudget(64, 8); b != 64 {
		t.Fatalf("small-n floor: got %d, want 64", b)
	}
	if b := AutoBudget(4096, 8); b != 4*4096/9 {
		t.Fatalf("got %d, want %d", b, 4*4096/9)
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero budget did not panic")
		}
	}()
	New[testMsg](telemetry.NewRegistry(), 8, Params{}, 1)
}

// FuzzRouteHeader sends walkers with arbitrary headers — a target that is
// 0, departed or out of range, any key, keyed or not, any hop count left
// in the header, any seed — on a 4-regular circulant graph with some
// holders, and steps a few rounds. The router must never panic, its books
// must balance after every Step, a delivered walk must end where its
// header allows, every walker must deliver or drop in the first Step, and
// the hop count it reports must be the forwards it took, within the
// router's budget.
//
// Input: a holder mask and a dead mask, then 16 bytes per walker —
// target, origin, keyed flag, key, hops (int32), seed (64 bits) —
// little-endian.
func FuzzRouteHeader(f *testing.F) {
	const n, budget = 16, 48
	f.Add([]byte{0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 0, 0})
	f.Add([]byte{0x07, 0x03,
		2, 5, 1, 1, 0xfe, 0xff, 0xff, 0x7f, 9, 8, 7, 6, 5, 4, 3, 2,
		0, 3, 0, 0, 0x00, 0x00, 0x00, 0x80, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 0,
		7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		h := newHarness(t, n, Params{Budget: budget})
		// Ports ±1 and ±3: a symmetric multigraph, as the router requires.
		h.g = graph.New(n, 4)
		for v := 0; v < n; v++ {
			for p, off := range []int{1, n - 1, 3, n - 3} {
				h.g.SetPort(v, p, int32((v+off)%n))
			}
		}
		for s := 0; s < 8; s++ {
			if data[0]>>s&1 != 0 {
				h.holders[int32(2*s)] = uint64(s%3 + 1)
			}
			if data[1]>>s&1 != 0 {
				h.dead[uint64(2*s+2)] = true // slot 2s+1's occupant
			}
		}
		sent := map[int]Header{}
		for id, rec := 1, data[2:]; len(rec) >= 16 && id <= 16; id, rec = id+1, rec[16:] {
			hd := Header{
				Target: uint64(rec[0]) % (2 * n),
				Keyed:  rec[2]&1 != 0,
				Key:    uint64(rec[3] % 4),
				Hops:   int32(binary.LittleEndian.Uint32(rec[4:])),
				Seed:   binary.LittleEndian.Uint64(rec[8:]),
			}
			sent[id] = hd
			h.r.Send(&testMsg{id: id}, hd, int32(rec[1]%n))
		}
		var hops int64
		for step := 0; step < 4; step++ {
			h.r.Step()
			h.conserve(t)
			if h.r.InFlight() != 0 {
				t.Fatalf("step %d: %d walkers outlived the Step", step, h.r.InFlight())
			}
		}
		if got := len(h.delivered) + len(h.drops); got != len(sent) {
			t.Fatalf("%d walkers sent, %d delivered or dropped", len(sent), got)
		}
		for _, d := range h.delivered {
			hd := sent[d.id]
			tslot, live := h.r.env.SlotOf(hd.Target)
			atTarget := live && d.slot == tslot
			atHolder := hd.Keyed && hd.Key != 0 && h.holders[d.slot] == hd.Key
			if !atTarget && !atHolder {
				t.Fatalf("walker %d %+v delivered at slot %d: neither its target nor a holder", d.id, hd, d.slot)
			}
			if d.hops < 0 || d.hops > budget {
				t.Fatalf("walker %d %+v delivered after %d forwards, budget %d", d.id, hd, d.hops, budget)
			}
			hops += int64(d.hops)
		}
		for i, dr := range h.drops {
			if fw := h.dropHops[i]; fw < 0 || fw > budget {
				t.Fatalf("walker %d %+v dropped (%v) after %d forwards, budget %d", dr.id, sent[dr.id], dr.reason, fw, budget)
			}
			hops += int64(h.dropHops[i])
		}
		if fw := h.r.Metrics().Forwards; fw != hops {
			t.Fatalf("%d forwards in all, walkers report %d hops", fw, hops)
		}
	})
}
