package route

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/shard"
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
	holds := func(s int32) bool {
		return w.h.Keyed && r.env.HeldKeys != nil && slices.Contains(r.env.HeldKeys(s, nil), w.h.Key)
	}
	for budget := r.p.Budget; ; budget-- {
		s := w.at
		if s == tslot {
			r.deliver(w, s)
			return
		}
		if holds(s) {
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
			if next < 0 && holds(nb) {
				next = nb // keep scanning: the exact target still wins
			}
		}
		if next < 0 {
			next = nbrs[rng.Hash(w.h.Seed, uint64(w.h.Hops))%uint64(len(nbrs))]
		}
		r.fwd[s]++
		w.h.Hops++
		r.m.Forwards++
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

// TestStepMatchesReference pins Step — the host's hop loop, lanes,
// canonical merge — to the serial router it replaced, with id, keyed and
// dead-target walkers, budgets that expire, and every lane count: the
// same callbacks in the same order with the same hops, the same per-slot
// link meters, and every Metrics field, round after round. The reference
// steps through g.Neighbors, so a hop off the round's adjacency shows as
// a different end slot, hop count or meter. Between rounds the adjacency
// is drawn afresh, or — in the splice legs, as under the self-healing
// overlay — changed by splices. (A pure id walk to Target 0 is the one
// deliberate difference and has its own test.) The fresh-draw legs keep
// the names they had when links had a capacity and a hop recorder
// existed: cap=0, hoprec=false.
func TestStepMatchesReference(t *testing.T) {
	const n, d, rounds, perRound = 192, 8, 8, 700
	for _, splice := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 8} {
			name := fmt.Sprintf("d=%d/cap=0/workers=%d/hoprec=false", d, workers)
			if splice {
				name = fmt.Sprintf("d=%d/splice/workers=%d", d, workers)
			}
			t.Run(name, func(t *testing.T) {
				p := Params{Budget: 40, Seed: 11}
				diffStep(t, n, d, rounds, perRound, p, workers, splice)
			})
		}
	}
}

// splice replaces two random edges (a,b),(c,e) of g with (a,c),(b,e),
// as the overlay's repair does, keeping co — co[v·d+p] is the port of v
// in the row of its neighbour through port p — in step. Self-loops and
// parallel edges may appear.
func splice(g *graph.Graph, co []int32, r *rng.Stream) {
	adj, d := g.Adjacency(), g.Degree()
	x, u := r.Intn(len(adj)), r.Intn(len(adj)) // ports a·d+pa and c·d+pc
	a, c := x/d, u/d
	b, e := int(adj[x]), int(adj[u])
	y, v := b*d+int(co[x]), e*d+int(co[u]) // their reciprocal ports
	if u == x || u == y {
		return // one edge: nothing to splice
	}
	g.SetPort(a, x%d, int32(c))
	g.SetPort(c, u%d, int32(a))
	g.SetPort(b, y%d, int32(e))
	g.SetPort(e, v%d, int32(b))
	co[x], co[u] = int32(u%d), int32(x%d)
	co[y], co[v] = int32(v%d), int32(y%d)
}

func diffStep(t *testing.T, n, d, rounds, perRound int, p Params, workers int, spliced bool) {
	g := graph.New(n, d)
	topo := rng.New(3)
	holders := make([]uint64, n) // slot -> held key (0 = none)
	dead := make([]bool, n+1)    // id -> departed
	// FillRandomRegular pairs port 2k of v with port 2k+1 of its
	// neighbour, so the splice legs start from co[x] = x%d ^ 1.
	co := make([]int32, n*d)
	for x := range co {
		co[x] = int32(x%d ^ 1)
	}

	var ref, got []event
	env := func(events *[]event) Env[testMsg] {
		return Env[testMsg]{
			Graph: func() *graph.Graph { return g },
			SlotOf: func(id uint64) (int32, bool) {
				if id > uint64(n) || dead[id] {
					return 0, false
				}
				return int32(id - 1), true
			},
			HeldKeys: func(slot int32, dst []uint64) []uint64 {
				if k := holders[slot]; k != 0 {
					dst = append(dst, k)
				}
				return dst
			},
			Deliver: func(slot int32, m *testMsg, hops int32) {
				*events = append(*events, event{id: m.id, slot: slot, hops: hops})
			},
			OnDrop: func(m *testMsg, h *Header, reason DropReason) {
				*events = append(*events, event{id: m.id, slot: -1, hops: h.Hops, reason: reason})
			},
		}
	}
	rr := newRefRouter(n, p)
	rr.env = env(&ref)
	nr := New[testMsg](telemetry.NewRegistry(), n, p, shard.NewCrew(workers))
	nr.SetEnv(env(&got))

	load := rng.New(5)
	id := 0
	for round := 0; round < rounds; round++ {
		if !spliced || round == 0 {
			g.FillRandomRegular(topo)
		} else {
			for range n / 2 {
				splice(g, co, topo)
			}
			for x, w := range g.Adjacency() {
				if g.Neighbor(int(w), int(co[x])) != int32(x/d) {
					t.Fatalf("round %d: port %d of slot %d is not reciprocated", round, x%d, x/d)
				}
			}
		}
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

		if !reflect.DeepEqual(ref, got) {
			for i := range ref {
				if i >= len(got) || ref[i] != got[i] {
					t.Fatalf("round %d: event %d diverges: reference %+v, got %+v (of %d / %d)",
						round, i, ref[i], got[min(i, len(got)-1)], len(ref), len(got))
				}
			}
			t.Fatalf("round %d: %d extra events", round, len(got)-len(ref))
		}
		if !reflect.DeepEqual(rr.fwd, nr.lanes[0].fwd) {
			t.Fatalf("round %d: per-slot link meters differ", round)
		}
		if nr.InFlight() != 0 {
			t.Fatalf("round %d: %d walkers outlived the Step", round, nr.InFlight())
		}
		if m := nr.Metrics(); m != rr.m {
			t.Fatalf("round %d: metrics differ:\nreference %+v\ngot       %+v", round, rr.m, m)
		}
		ref, got = ref[:0], got[:0]
	}
	m := rr.m
	if m.Delivered == 0 || m.DroppedBudget == 0 || m.DroppedDead == 0 {
		t.Fatalf("workload is not mixed: %+v", m)
	}
}
