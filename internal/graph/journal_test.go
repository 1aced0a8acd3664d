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
