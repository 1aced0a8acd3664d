package graph

import (
	"testing"

	"dynp2p/internal/rng"
)

// TestJournalStartsDisrupted pins the enable-time contract: the first
// drain reports a disruption (no delta history for the pre-existing
// adjacency), subsequent quiet drains are clean and empty.
func TestJournalStartsDisrupted(t *testing.T) {
	r := rng.New(1)
	g := RandomRegular(64, 4, r)
	g.EnableJournal(0)
	if _, disrupted := g.DrainJournal(); !disrupted {
		t.Fatal("first drain after EnableJournal must be disrupted")
	}
	if deltas, disrupted := g.DrainJournal(); disrupted || len(deltas) != 0 {
		t.Fatalf("quiet drain: deltas=%d disrupted=%v", len(deltas), disrupted)
	}
}

// TestJournalNoJournalDrain pins DrainJournal on a journal-less graph:
// always disrupted, so consumers that don't know whether journaling is
// on fall back to snapshots.
func TestJournalNoJournalDrain(t *testing.T) {
	g := New(8, 2)
	if _, disrupted := g.DrainJournal(); !disrupted {
		t.Fatal("drain without journal must report disrupted")
	}
}

// TestJournalSkipsNoopWrites: writing a port to its current value emits
// no delta.
func TestJournalSkipsNoopWrites(t *testing.T) {
	r := rng.New(2)
	g := RandomRegular(32, 4, r)
	g.EnableJournal(0)
	g.DrainJournal()
	g.SetPort(5, 1, g.Neighbor(5, 1))
	if deltas, disrupted := g.DrainJournal(); disrupted || len(deltas) != 0 {
		t.Fatalf("no-op write journaled: deltas=%d disrupted=%v", len(deltas), disrupted)
	}
}

// TestJournalOverLimitDisrupts: a drain interval with more writes than
// the limit collapses to a disruption instead of growing unboundedly.
func TestJournalOverLimitDisrupts(t *testing.T) {
	r := rng.New(3)
	g := RandomRegular(64, 4, r)
	g.EnableJournal(8)
	g.DrainJournal()
	s := rng.Derive(7, 1)
	for i := 0; i < 32; i++ {
		g.SetPort(s.Intn(64), s.Intn(4), int32(s.Intn(64)))
	}
	deltas, disrupted := g.DrainJournal()
	if !disrupted || len(deltas) != 0 {
		t.Fatalf("over-limit interval: deltas=%d disrupted=%v", len(deltas), disrupted)
	}
	// The journal recovers: a small follow-up interval records cleanly.
	g.SetPort(0, 0, int32((g.Neighbor(0, 0)+1)%64))
	if deltas, disrupted := g.DrainJournal(); disrupted || len(deltas) != 1 {
		t.Fatalf("post-disruption interval: deltas=%d disrupted=%v", len(deltas), disrupted)
	}
}

// severSlot redirects every edge incident to slot v back onto v's own
// ports — the shape of churn severing in the self-healing overlay (the
// dead slot's neighbours each lose one port).
func severSlot(g *Graph, v int) {
	d := g.Degree()
	for p := 0; p < d; p++ {
		w := int(g.Neighbor(v, p))
		for q := 0; q < d; q++ {
			if int(g.Neighbor(w, q)) == v {
				g.SetPort(w, q, int32(w))
				break
			}
		}
		g.SetPort(v, p, int32(v))
	}
}

// spliceEdges splices vertex u into edge (a,b): the shape of overlay
// repair (two half-edges rewired to adopt a dangling vertex).
func spliceEdges(g *Graph, u, pa, pb, a, qa, b, qb int) {
	g.SetPort(a, qa, int32(u))
	g.SetPort(u, pa, int32(a))
	g.SetPort(b, qb, int32(u))
	g.SetPort(u, pb, int32(b))
}

// TestJournalReplayProperty is the satellite's property test: 300 rounds
// of randomly mixed mutations — churn-style severing, overlay-style
// splicing, raw port writes, and full Rerandomize rebuilds — with
// the journal drained each round. A mirror adjacency advanced only by
// drained deltas (or re-snapshotted on disruption) must match the live
// adjacency exactly after every round.
func TestJournalReplayProperty(t *testing.T) {
	const n, d, rounds = 128, 6, 300
	build := rng.New(7)
	mut := rng.Derive(7, 1)
	g := RandomRegular(n, d, build)
	g.EnableJournal(0)

	mirror := append([]int32(nil), g.Adjacency()...)
	g.DrainJournal() // consume the enable-time disruption

	for round := 0; round < rounds; round++ {
		switch mut.Intn(6) {
		case 0, 1: // full re-randomisation (oracle Rerandomize mode)
			g.FillRandomRegular(build)
		case 2: // churn-style severing of a few slots
			for i := 0; i < 1+mut.Intn(4); i++ {
				severSlot(g, mut.Intn(n))
			}
		case 3: // overlay-style splices
			for i := 0; i < 1+mut.Intn(8); i++ {
				u := mut.Intn(n)
				a, b := mut.Intn(n), mut.Intn(n)
				spliceEdges(g, u, mut.Intn(d), mut.Intn(d), a, mut.Intn(d), b, mut.Intn(d))
			}
		case 4: // raw port writes, including deliberate no-ops
			for i := 0; i < mut.Intn(20); i++ {
				v, p := mut.Intn(n), mut.Intn(d)
				w := int32(mut.Intn(n))
				if mut.Intn(4) == 0 {
					w = g.Neighbor(v, p) // no-op
				}
				g.SetPort(v, p, w)
			}
		case 5: // quiet round
		}

		deltas, disrupted := g.DrainJournal()
		if disrupted {
			copy(mirror, g.Adjacency())
		} else {
			// Forward replay advances the mirror to the live adjacency.
			ApplyDeltas(mirror, deltas)
		}
		adj := g.Adjacency()
		for i := range adj {
			if mirror[i] != adj[i] {
				t.Fatalf("round %d (disrupted=%v, %d deltas): mirror mismatch at index %d: got %d want %d",
					round, disrupted, len(deltas), i, mirror[i], adj[i])
			}
		}
	}
}

// Journal scripts are byte strings, four bytes per operation: an opcode
// and three arguments. The graph is small and the journal limit low so a
// short script reaches the over-limit collapse.
const (
	jopSet    = iota // SetPort(a, b, c); c == 255 rewrites the current value (a no-op)
	jopSever         // severSlot(a)
	jopSplice        // spliceEdges of vertex a into edge (b, c)
	jopFill          // FillRandomRegular
	jopBurst         // more raw writes than the limit, from slot a on
	jopDrain         // DrainJournal and compare
	jopCount

	jN, jD, jLimit = 16, 4, 8
)

// runJournalScript drives a journaled graph through script. After every
// drain (and a final one) a shadow row advanced only by the drained deltas,
// or re-snapshotted on a disruption, must equal the live adjacency: the
// contract the walk soup's delta ring is built on.
func runJournalScript(t *testing.T, script []byte) {
	t.Helper()
	build := rng.New(7)
	g := RandomRegular(jN, jD, build)
	g.EnableJournal(jLimit)
	shadow := make([]int32, jN*jD)
	drain := func(op int) {
		t.Helper()
		deltas, disrupted := g.DrainJournal()
		if disrupted {
			if len(deltas) != 0 {
				t.Fatalf("op %d: disrupted drain returned %d deltas", op, len(deltas))
			}
			copy(shadow, g.Adjacency())
		} else {
			if len(deltas) > jLimit {
				t.Fatalf("op %d: %d deltas drained, limit %d", op, len(deltas), jLimit)
			}
			ApplyDeltas(shadow, deltas)
		}
		for i, w := range g.Adjacency() {
			if shadow[i] != w {
				t.Fatalf("op %d (disrupted=%v, %d deltas): shadow[%d] = %d, adjacency %d",
					op, disrupted, len(deltas), i, shadow[i], w)
			}
		}
	}
	drain(-1) // the enable-time disruption seeds the shadow
	for pc := 0; pc+3 < len(script); pc += 4 {
		a, b, c := int(script[pc+1]), int(script[pc+2]), int(script[pc+3])
		switch script[pc] % jopCount {
		case jopSet:
			w := int32(c % jN)
			if c == 255 {
				w = g.Neighbor(a%jN, b%jD)
			}
			g.SetPort(a%jN, b%jD, w)
		case jopSever:
			severSlot(g, a%jN)
		case jopSplice:
			spliceEdges(g, a%jN, b%jD, c%jD, b%jN, (b/jN)%jD, c%jN, (c/jN)%jD)
		case jopFill:
			g.FillRandomRegular(build)
		case jopBurst:
			for i := 0; i <= jLimit; i++ {
				v := (a + i) % jN
				g.SetPort(v, b%jD, (g.Neighbor(v, b%jD)+1)%jN)
			}
		case jopDrain:
			drain(pc / 4)
		}
	}
	drain(len(script) / 4)
}

// FuzzJournalReplay seeds one script per mutation shape
// TestJournalReplayProperty mixes — rebuild, severing, splices, raw writes
// with no-ops, quiet drains — plus the over-limit burst and its recovery.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{jopFill, 0, 0, 0, jopDrain, 0, 0, 0, jopSet, 1, 2, 3, jopFill, 0, 0, 0, jopDrain, 0, 0, 0})
	f.Add([]byte{jopSever, 3, 0, 0, jopDrain, 0, 0, 0, jopSever, 3, 0, 0, jopSever, 9, 0, 0})
	f.Add([]byte{jopSplice, 5, 17, 38, jopSplice, 2, 200, 7, jopDrain, 0, 0, 0, jopDrain, 0, 0, 0})
	f.Add([]byte{jopSet, 1, 1, 9, jopSet, 1, 1, 255, jopSet, 4, 0, 4, jopDrain, 0, 0, 0, jopSet, 1, 1, 9})
	f.Add([]byte{jopBurst, 0, 1, 0, jopDrain, 0, 0, 0, jopSet, 2, 2, 2, jopDrain, 0, 0, 0, jopBurst, 14, 3, 0, jopSet, 0, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) { runJournalScript(t, script) })
}
