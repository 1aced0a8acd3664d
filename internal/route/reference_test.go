package route

import (
	"fmt"
	"reflect"
	"testing"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/telemetry"
)

// refRouter is the serial router the hop kernel replaced, kept as the
// oracle Step is pinned to: one walker at a time, every side effect taken
// the moment the walk decides it. Its walk loop is the old production
// loop verbatim — two-round hash and modulus per hop, a scan of the
// current row for the target, per-hop bookkeeping in the header.
type refRouter struct {
	p   Params
	env Env[testMsg]

	transit []walker[testMsg]
	fwd     []int32

	m Metrics
}

func newRefRouter(n int, p Params) *refRouter {
	return &refRouter{p: p, fwd: make([]int32, n)}
}

func (r *refRouter) Send(m testMsg, h Header, at int32) {
	h.Hops = 0
	r.m.Sent++
	r.transit = append(r.transit, walker[testMsg]{h: h, at: at, m: m})
}

func (r *refRouter) Step() {
	g := r.env.Graph()
	clear(r.fwd)
	for i := range r.transit {
		r.walk(&r.transit[i], g)
	}
	r.transit = r.transit[:0]
	var maxLink int32
	for _, f := range r.fwd {
		maxLink = max(maxLink, f)
	}
	r.m.MaxLinkLoad = max(r.m.MaxLinkLoad, int64(maxLink))
}

func (r *refRouter) walk(w *walker[testMsg], g *graph.Graph) {
	tslot := int32(-1)
	if w.h.Target != 0 {
		if s, ok := r.env.SlotOf(w.h.Target); ok {
			tslot = s
		} else if !w.h.Keyed {
			r.drop(w, DropDead)
			return
		}
	}
	for budget := r.p.Budget; ; budget-- {
		s := w.at
		if s == tslot {
			r.deliver(w, s)
			return
		}
		if w.h.Keyed && r.env.Holder != nil && r.env.Holder(s, w.h.Key) {
			r.deliver(w, s)
			return
		}
		if budget <= 0 {
			r.drop(w, DropBudget)
			return
		}
		nbrs := g.Neighbors(int(s))
		next := int32(-1)
		for _, nb := range nbrs {
			if nb == tslot {
				next = nb
				break
			}
			if w.h.Keyed && next < 0 && r.env.Holder != nil && r.env.Holder(nb, w.h.Key) {
				next = nb // keep scanning: the exact target still wins
			}
		}
		if next < 0 {
			next = nbrs[rng.Hash(w.h.Seed, uint64(w.h.Hops))%uint64(len(nbrs))]
		}
		r.fwd[s]++
		w.h.Hops++
		r.m.Forwards++
		if r.env.OnHop != nil {
			r.env.OnHop(s, next)
		}
		w.at = next
	}
}

func (r *refRouter) deliver(w *walker[testMsg], s int32) {
	r.m.Delivered++
	r.env.Deliver(s, &w.m, w.h.Hops)
}

func (r *refRouter) drop(w *walker[testMsg], reason DropReason) {
	if reason == DropBudget {
		r.m.DroppedBudget++
	} else {
		r.m.DroppedDead++
	}
	r.env.OnDrop(&w.m, &w.h, reason)
}

// event is one walker's fate as the environment callbacks saw it.
type event struct {
	id     int
	slot   int32 // delivery slot; -1 for drops
	hops   int32
	reason DropReason
}

// TestStepMatchesReference pins the sharded Step — lean kernel, lanes,
// canonical merge — to the serial router it replaced, on re-randomised
// regular graphs with id, keyed and dead-target walkers, budgets that
// expire, and every lane count: the same callbacks in the same order with
// the same hops, the same per-slot link meters, and every Metrics field,
// round after round. (A pure id walk to Target 0 is the one deliberate
// difference and has its own test.) cap=0: links are unmetered.
func TestStepMatchesReference(t *testing.T) {
	const n, rounds, perRound = 192, 8, 700
	for _, d := range []int{6, 8} { // modulus and mask port reduction
		for _, workers := range []int{1, 2, 3, 8} {
			for _, hopRec := range []bool{false, true} {
				name := fmt.Sprintf("d=%d/cap=0/workers=%d/hoprec=%v", d, workers, hopRec)
				t.Run(name, func(t *testing.T) {
					p := Params{Budget: 40, Seed: 11}
					diffStep(t, n, d, rounds, perRound, p, workers, hopRec)
				})
			}
		}
	}
}

func diffStep(t *testing.T, n, d, rounds, perRound int, p Params, workers int, hopRec bool) {
	g := graph.New(n, d)
	topo := rng.New(3)
	holders := make([]uint64, n) // slot -> held key (0 = none)
	dead := make([]bool, n+1)    // id -> departed

	type side struct {
		events []event
		hops   [][2]int32
	}
	var ref, got side
	env := func(s *side) Env[testMsg] {
		e := Env[testMsg]{
			Graph: func() *graph.Graph { return g },
			SlotOf: func(id uint64) (int32, bool) {
				if id > uint64(n) || dead[id] {
					return 0, false
				}
				return int32(id - 1), true
			},
			Holder: func(slot int32, key uint64) bool { return holders[slot] == key },
			Deliver: func(slot int32, m *testMsg, hops int32) {
				s.events = append(s.events, event{id: m.id, slot: slot, hops: hops})
			},
			OnDrop: func(m *testMsg, h *Header, reason DropReason) {
				s.events = append(s.events, event{id: m.id, slot: -1, hops: h.Hops, reason: reason})
			},
		}
		if hopRec {
			e.OnHop = func(from, to int32) { s.hops = append(s.hops, [2]int32{from, to}) }
		}
		return e
	}
	rr := newRefRouter(n, p)
	rr.env = env(&ref)
	nr := New[testMsg](telemetry.NewRegistry(), n, p, workers)
	nr.SetEnv(env(&got))

	load := rng.New(5)
	id := 0
	for round := 0; round < rounds; round++ {
		g.FillRandomRegular(topo)
		for s := range holders {
			holders[s] = 0
			if load.Intn(24) == 0 {
				holders[s] = uint64(1 + load.Intn(3))
			}
		}
		for i := range dead {
			dead[i] = i > 0 && load.Intn(16) == 0
		}
		for i := 0; i < perRound; i++ {
			id++
			h := Header{Target: uint64(1 + load.Intn(n)), Seed: rng.Hash(p.Seed, uint64(id))}
			switch load.Intn(4) {
			case 0: // keyed, addressed
				h.Keyed, h.Key = true, uint64(1+load.Intn(3))
			case 1: // keyed, no addressee
				h.Keyed, h.Key, h.Target = true, uint64(1+load.Intn(3)), 0
			}
			at := int32(load.Intn(n))
			m := testMsg{id: id}
			rr.Send(m, h, at)
			nr.Send(&m, h, at)
		}
		rr.Step()
		nr.Step()

		if !reflect.DeepEqual(ref.events, got.events) {
			for i := range ref.events {
				if i >= len(got.events) || ref.events[i] != got.events[i] {
					t.Fatalf("round %d: event %d diverges: reference %+v, got %+v (of %d / %d)",
						round, i, ref.events[i], got.events[min(i, len(got.events)-1)], len(ref.events), len(got.events))
				}
			}
			t.Fatalf("round %d: %d extra events", round, len(got.events)-len(ref.events))
		}
		if !reflect.DeepEqual(ref.hops, got.hops) {
			t.Fatalf("round %d: hop sequences differ (%d vs %d hops)", round, len(ref.hops), len(got.hops))
		}
		if !reflect.DeepEqual(rr.fwd, nr.lanes[0].fwd) {
			t.Fatalf("round %d: per-slot link meters differ", round)
		}
		var delivered []int
		nr.EachDelivered(func(slot int32, m *testMsg) { delivered = append(delivered, m.id) })
		var want []int
		for _, e := range ref.events {
			if e.slot >= 0 {
				want = append(want, e.id)
			}
		}
		if !reflect.DeepEqual(want, delivered) {
			t.Fatalf("round %d: EachDelivered revisits %d messages, Deliver saw %d", round, len(delivered), len(want))
		}
		if nr.InFlight() != 0 {
			t.Fatalf("round %d: %d walkers outlived the Step", round, nr.InFlight())
		}
		if m := nr.Metrics(); m != rr.m {
			t.Fatalf("round %d: metrics differ:\nreference %+v\ngot       %+v", round, rr.m, m)
		}
		ref.events, got.events = ref.events[:0], got.events[:0]
		ref.hops, got.hops = ref.hops[:0], got.hops[:0]
	}
	m := rr.m
	if m.Delivered == 0 || m.DroppedBudget == 0 || m.DroppedDead == 0 {
		t.Fatalf("workload is not mixed: %+v", m)
	}
}
