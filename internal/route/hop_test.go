package route

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/shard"
	"dynp2p/internal/telemetry"
)

// hopCase is one Step's worth of walkers on a graph, id-addressed and
// keyed. The kernel leaves each one out of budget or next to its target
// or a holder, for the Go loop to finish on the same lane while the other
// way holds a walker of its own.
type hopCase struct {
	g       *graph.Graph
	budget  int
	holders []uint64 // slot -> held key (0 = none)
	ws      []walker[testMsg]
}

// caseRouter is a one-lane router over c's graph, holders and budget.
func caseRouter(c hopCase) *Router[testMsg] {
	n := c.g.N()
	r := New[testMsg](telemetry.NewRegistry(), n, Params{Budget: 1}, shard.NewCrew(1))
	r.p.Budget = c.budget // New refuses 0; the kernel must not
	r.SetEnv(Env[testMsg]{
		Graph: func() *graph.Graph { return c.g },
		SlotOf: func(id uint64) (int32, bool) {
			if id == 0 || id > uint64(n) {
				return 0, false
			}
			return int32(id - 1), true
		},
		HeldKeys: func(slot int32, dst []uint64) []uint64 {
			if k := c.holders[slot]; k != 0 {
				dst = append(dst, k)
			}
			return dst
		},
	})
	r.g = c.g
	return r
}

// walkCase walks c's walkers on one lane with the kernel on or off and
// returns them with their outcomes, and the lane's per-slot forwards. It
// fails if the Step leaves a near bit set in either way's bitset: a stale
// bit would only move hops from the kernel to the Go loop, which the
// outcomes cannot show.
func walkCase(t testing.TB, name string, c hopCase, kernel bool) ([]walker[testMsg], []int32, int64) {
	t.Helper()
	r := caseRouter(c)
	for _, w := range c.ws {
		*r.ws.Add() = w
	}
	withHopKernel(kernel, func() {
		r.buildHolders()
		r.walkAll()
	})
	for l := range r.lanes {
		for i, near := range r.lanes[l].ways {
			if j := slices.IndexFunc(near, func(b uint64) bool { return b != 0 }); j >= 0 {
				t.Fatalf("%s (kernel %v): lane %d way %d keeps near bits %#x in word %d after the Step", name, kernel, l, i, near[j], j)
			}
		}
	}
	ws := make([]walker[testMsg], r.ws.Len())
	for i := range ws {
		ws[i] = *r.ws.At(i)
	}
	return ws, r.lanes[0].fwd, r.Metrics().Forwards
}

// diffKernel walks c with the kernel and with the Go loop and fails at the
// first walker whose end slot, hop count or outcome differs, or if the
// per-slot forward counts do.
func diffKernel(t testing.TB, name string, c hopCase) {
	t.Helper()
	goWs, goFwd, goSum := walkCase(t, name, c, false)
	kWs, kFwd, kSum := walkCase(t, name, c, true)
	for i := range goWs {
		g, k := &goWs[i], &kWs[i]
		if g.at != k.at || g.h.Hops != k.h.Hops || g.out != k.out {
			t.Fatalf("%s: walker %d (%+v from slot %d): kernel ends at %d after %d hops (outcome %d), Go loop at %d after %d (outcome %d)",
				name, i, c.ws[i].h, c.ws[i].at, k.at, k.h.Hops, k.out, g.at, g.h.Hops, g.out)
		}
	}
	if !slices.Equal(goFwd, kFwd) || goSum != kSum {
		t.Fatalf("%s: per-slot forwards differ (%d in all from the kernel, %d from the Go loop)", name, kSum, goSum)
	}
}

// hopWalker is a walker from origin at to slot target (-1 = id 0, which
// drops at pickup), keyed on key when key is not 0.
func hopWalker(id int, at, target int32, key uint64, seed uint64) walker[testMsg] {
	h := Header{Target: uint64(target + 1), Seed: seed}
	if key != 0 {
		h.Keyed, h.Key = true, key
	}
	return walker[testMsg]{h: h, at: at, m: testMsg{id: id}}
}

// randomHopCase draws a random d-regular graph on n slots and count
// walkers: a fifth self-addressed, a fifth to a neighbour of the origin,
// the rest to random slots, with every eighth keyed and a few to no one.
// Half the keyed walkers seek a key held at slot h and start on h, next
// to h, or next to h with their target in the row too: at budget 1 the
// second steps onto h with its last hop.
func randomHopCase(r *rng.Stream, n, d, budget, count int) hopCase {
	c := hopCase{g: graph.New(n, d), budget: budget, holders: make([]uint64, n)}
	c.g.FillRandomRegular(r)
	var held []int32
	for s := range c.holders {
		if r.Intn(16) == 0 {
			c.holders[s] = uint64(1 + r.Intn(2))
			held = append(held, int32(s))
		}
	}
	for i := 0; i < count; i++ {
		if i%8 == 7 && len(held) > 0 && r.Intn(2) == 0 {
			h := held[r.Intn(len(held))]
			at, target := h, int32(r.Intn(n))
			switch r.Intn(3) {
			case 1:
				at = c.g.Neighbor(int(h), r.Intn(d))
			case 2:
				at = c.g.Neighbor(int(h), r.Intn(d))
				target = c.g.Neighbor(int(at), r.Intn(d))
			}
			c.ws = append(c.ws, hopWalker(i, at, target, c.holders[h], r.Uint64()))
			continue
		}
		at := int32(r.Intn(n))
		var target int32
		switch r.Intn(5) {
		case 0:
			target = at
		case 1:
			target = c.g.Neighbor(int(at), r.Intn(d))
		default:
			target = int32(r.Intn(n))
		}
		if r.Intn(40) == 0 {
			target = -1
		}
		var key uint64
		if i%8 == 7 {
			key = uint64(1 + r.Intn(2))
		}
		c.ws = append(c.ws, hopWalker(i, at, target, key, r.Uint64()))
	}
	return c
}

// TestHopKernelMatchesGo pins the two-walker kernel to the Go loop walker
// for walker — end slot, hops, outcome — and slot for slot in the
// forward counts, on random regular graphs of degree 2 … 16 and 2 … 4096
// slots, at budgets 0, 1 and AutoBudget, with self-addressed, neighbour
// and far targets, keyed walkers in between, some of them on or next to
// a holder, and odd walker counts, so that way 0 also runs alone. Off
// amd64 both sides are the Go loop.
func TestHopKernelMatchesGo(t *testing.T) {
	r := rng.New(43)
	for _, n := range []int{2, 3, 5, 17, 64, 100, 1000, 4096} {
		for _, d := range []int{2, 4, 8, 16} {
			for _, budget := range []int{0, 1, AutoBudget(n, d)} {
				for _, count := range []int{1, 2, 3, 8, 65, 257} {
					name := fmt.Sprintf("n=%d/d=%d/budget=%d/walkers=%d", n, d, budget, count)
					diffKernel(t, name, randomHopCase(r, n, d, budget, count))
				}
			}
		}
	}
}

// TestRetireEndsWalksAsTheGoLoop hands hopTwo and retire one walker in
// every state — on each slot, any hops up to the budget, to itself, a
// neighbour, a far slot or no one, keyed or not — including the states
// walkLane keeps from the kernel (on a near slot), and checks that they
// end it where the Go loop does from the same state, after as many hops
// and with the same outcome.
func TestRetireEndsWalksAsTheGoLoop(t *testing.T) {
	r := rng.New(47)
	const n, d, budget = 64, 4, 3
	c := randomHopCase(r, n, d, budget, 0)
	rt, adj := caseRouter(c), c.g.Adjacency()
	ln := &rt.lanes[0]
	ln.k.adj, ln.k.fwd = &adj[0], &ln.fwd[0]
	ln.k.mask, ln.k.shift, ln.k.limit = d-1, 2, budget
	for s := int32(0); s < n; s++ {
		for _, target := range []int32{s, c.g.Neighbor(int(s), r.Intn(d)), int32(r.Intn(n)), -1} {
			for key := uint64(0); key <= 2; key++ {
				for hops := int32(0); hops <= budget; hops++ {
					w := hopWalker(0, s, target, key, r.Uint64())
					w.h.Hops = hops
					rt.ws.Reset()
					*rt.ws.Add(), ln.ki = w, 0
					rt.buildHolders()
					near := ln.ways[0]
					hold := rt.fillNear(ln, near, &w.h, target, adj, d)
					rt.walk(&w, target, near, hold, ln.fwd, adj, d)
					ln.k.way[0] = hopWay{s: int64(s), hops: int64(hops), base: rng.HashInit(w.h.Seed), near: &near[0], t: target, hold: hold}
					hopTwo(&ln.k, true)
					rt.retire(ln, 0, adj, d)
					if k := rt.ws.At(0); k.at != w.at || k.h.Hops != w.h.Hops || k.out != w.out {
						t.Fatalf("walker to %d keyed on %d from slot %d after %d hops: kernel and retire end at %d after %d hops (outcome %d), Go loop at %d after %d (outcome %d)",
							target, key, s, hops, k.at, k.h.Hops, k.out, w.at, w.h.Hops, w.out)
					}
				}
			}
		}
	}
}

// FuzzHopKernel is TestHopKernelMatchesGo from fuzz bytes: n, degree,
// budget (255 = AutoBudget) and graph seed, then 4 bytes per walker —
// origin, target kind (self, neighbour through a port, far, none; bit 2
// keys it) and two of target offset — with every seventh slot a holder
// and the walkers' seeds drawn after the graph's.
func FuzzHopKernel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 2, 2, 7, 0, 0, 0, 0, 0, 0, 0, 3, 2, 5, 9, 1, 1, 0, 0, 8, 3, 1, 2, 0, 5, 4, 4})
	f.Add([]byte{63, 3, 255, 1, 2, 3, 4, 5, 6, 7, 8, 10, 2, 0, 40, 11, 6, 0, 41})
	// n=30, d=4, holders every seventh slot, behind an id walker. Graph
	// seed 1 (slot 11's row is 0 20 12 26): a keyed walker starts on
	// holder 7 with no budget; one stands at 11, where holder 0 and its
	// target 20 are both in the row. Graph seed 4, budget 2: one takes a
	// kernel hop from 24 and its last hop onto holder 7.
	f.Add([]byte{28, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 5, 0, 7, 6, 3, 0})
	f.Add([]byte{28, 1, 255, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 5, 0, 11, 5, 1, 0})
	f.Add([]byte{28, 1, 2, 4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 5, 0, 24, 6, 3, 0})
	// Id walkers, n=30, d=4, graph seed 0 (slot 9's row is 3 13 19 1):
	// one starts next to its target, behind one in the kernel; at budget
	// 2 the walker from 0 to 9 spends its last hop landing on 1, next to
	// its target; at budget 0 one stands on its target.
	f.Add([]byte{28, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 9, 0, 5, 1, 2, 0})
	f.Add([]byte{28, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 9, 0})
	f.Add([]byte{28, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		n, d := 2+int(data[0]), 2<<(data[1]%4)
		budget := int(data[2])
		if budget == 255 {
			budget = AutoBudget(n, d)
		}
		seed := binary.LittleEndian.Uint64(data[3:])
		r := rng.New(seed)
		c := hopCase{g: graph.New(n, d), budget: budget, holders: make([]uint64, n)}
		c.g.FillRandomRegular(r)
		for s := 0; s < n; s += 7 {
			c.holders[s] = 1
		}
		for id, rec := 0, data[11:]; len(rec) >= 4 && id < 64; id, rec = id+1, rec[4:] {
			at := int32(int(rec[0]) % n)
			var target int32
			switch rec[1] % 4 {
			case 0:
				target = at
			case 1:
				target = c.g.Neighbor(int(at), int(rec[2])%d)
			case 2:
				target = int32((int(at) + int(rec[2]) + int(rec[3])<<8) % n)
			default:
				target = -1
			}
			key := uint64(rec[1] >> 2 & 1)
			c.ws = append(c.ws, hopWalker(id, at, target, key, r.Uint64()))
		}
		diffKernel(t, "fuzz", c)
	})
}
