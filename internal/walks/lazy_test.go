package walks

import (
	"slices"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
)

// lazyTestParams is the standard churny configuration the lazy tests run.
func lazyTestParams() Params {
	return Params{WalksPerRound: 4, WalkLength: 8, Deadline: 30, Lazy: true}
}

// TestLazyForcingIndependence pins that query-time forcing is purely
// observational: a lazy soup interrogated every round (Metrics,
// TotalTokens, AppendTokens — all of which force partial cohort
// evaluation) must deliver byte-for-byte the same per-round sample stream
// and final counters as an identical run that is never queried
// mid-flight. This is the regression net for the resume bookkeeping
// (evalRound, cached positions): any double-count or missed resume shows
// up as a divergence here.
func TestLazyForcingIndependence(t *testing.T) {
	const n, rounds = 128, 60
	run := func(query bool) ([]Sample, Metrics) {
		e := newEngine(n, churn.FixedLaw{Count: 4}, 21, 22)
		s := NewSoup(e, lazyTestParams(), 0)
		e.AddHook(s)
		var stream []Sample
		for r := 0; r < rounds; r++ {
			if r%11 == 3 {
				s.Inject(e, (r*7)%n, 10, e.Round())
			}
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < n; slot++ {
				stream = append(stream, s.Samples(slot)...)
			}
			if query {
				_ = s.Metrics()
				_ = s.TotalTokens()
				for slot := 0; slot < n; slot += 17 {
					_ = s.AppendTokens(slot, nil)
				}
			}
		}
		return stream, s.Metrics()
	}
	qStream, qMetrics := run(true)
	pStream, pMetrics := run(false)
	if qMetrics != pMetrics {
		t.Fatalf("metrics diverge under querying:\nqueried %+v\npure    %+v", qMetrics, pMetrics)
	}
	if len(qStream) != len(pStream) {
		t.Fatalf("sample streams differ in length: %d vs %d", len(qStream), len(pStream))
	}
	for i := range qStream {
		if qStream[i] != pStream[i] {
			t.Fatalf("sample stream diverges at %d: %+v vs %+v", i, qStream[i], pStream[i])
		}
	}
}

// TestLazyDeterministicAcrossWorkerCounts is the lazy-store sibling of
// TestDeterministicAcrossWorkerCounts (which runs the capped store): every
// observation must be identical at every worker count even though
// multi-worker replays claim shards in scheduling order. Each round's
// ordered samples are always compared; on query rounds so are the metrics,
// per-slot counts and every in-flight token identity. Querying every round
// makes every advance a one-round partial one; the mixed pattern leaves
// rounds without any query, so full deliveries and query-forced partial
// advances interleave.
func TestLazyDeterministicAcrossWorkerCounts(t *testing.T) {
	const n, rounds = 128, 48
	run := func(workers int, query func(r int) bool) [][]uint64 {
		e := newEngine(n, churn.FixedLaw{Count: 4}, 51, 52)
		s := NewSoup(e, lazyTestParams(), workers)
		e.AddHook(s)
		trace := make([][]uint64, rounds)
		var toks []Token
		for r := 0; r < rounds; r++ {
			if r%5 == 2 {
				s.Inject(e, (r*11)%n, 9, e.Round())
			}
			e.RunRound(simnet.NopHandler{})
			var rec []uint64
			for slot := 0; slot < n; slot++ {
				for _, sm := range s.Samples(slot) {
					rec = append(rec, uint64(slot), uint64(sm.Src), uint64(sm.Birth))
				}
			}
			if query(r) || r == rounds-1 {
				m := s.Metrics()
				rec = append(rec, uint64(m.Generated), uint64(m.Completed), uint64(m.Died), uint64(m.Moves))
				for slot := 0; slot < n; slot++ {
					toks = s.AppendTokens(slot, toks[:0])
					rec = append(rec, uint64(len(toks)))
					for _, tok := range toks {
						rec = append(rec, uint64(tok.Src), uint64(tok.Birth), uint64(tok.Serial), uint64(tok.Steps))
					}
				}
			}
			trace[r] = rec
		}
		return trace
	}
	for _, c := range []struct {
		name  string
		query func(r int) bool
	}{
		{"every-round", func(int) bool { return true }},
		{"mixed", func(r int) bool { return r%7 < 3 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := run(1, c.query)
			for _, workers := range []int{2, 3, 8} {
				got := run(workers, c.query)
				for r := range want {
					if !slices.Equal(got[r], want[r]) {
						t.Fatalf("workers=%d diverges from workers=1 at round %d (%d vs %d observations)",
							workers, r, len(got[r]), len(want[r]))
					}
				}
			}
		})
	}
}

// TestInjectGenerationSerialDisjoint pins the walk-identity invariant in
// both stores: fresh walks hold serials 0 … WalksPerRound-1 and injected
// walks continue from WalksPerRound across calls, so injecting into a slot
// immediately before RunRound — once, twice, or up to the uint16 clamp,
// into the slot that also generates that round — must never mint two
// tokens sharing a (Src, Birth, Serial) step-hash identity (a collision
// would make the pair walk in lock-step forever). The run churns, so the
// audit also covers the replaced-slot path where generation runs under a
// fresh id while the injected tokens died with the old one. All in-flight
// identities are audited every round up to and including each cohort's
// delivery round.
func TestInjectGenerationSerialDisjoint(t *testing.T) {
	const n, rounds, wpr = 64, 40, 3
	for _, mode := range []struct {
		name string
		p    Params
	}{
		{"capped", Params{WalksPerRound: wpr, WalkLength: 6, Deadline: 20, ForwardCap: 1 << 20}},
		{"lazy", Params{WalksPerRound: wpr, WalkLength: 6, Deadline: 20}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := newEngine(n, churn.FixedLaw{Count: 5}, 41, 42)
			s := NewSoup(e, mode.p, 0)
			e.AddHook(s)
			var toks []Token
			seen := make(map[Token]bool)
			for r := 0; r < rounds; r++ {
				slot := (r * 13) % n
				inject := func(count, want int) {
					t.Helper()
					if got := s.Inject(e, slot, count, e.Round()); got != want {
						t.Fatalf("round %d: injected %d of %d, want %d", r, got, count, want)
					}
				}
				room := 1<<16 - wpr
				inject(25, 25)
				room -= 25
				if r%3 == 1 { // a second call continues the first's serials
					inject(10, 10)
					room -= 10
				}
				if r == 9 || r == 22 { // fill the slot to the serial clamp
					inject(1<<16, room)
					inject(1, 0)
				}
				e.RunRound(simnet.NopHandler{})
				clear(seen)
				for sl := 0; sl < n; sl++ {
					toks = s.AppendTokens(sl, toks[:0])
					for _, tok := range toks {
						id := Token{Src: tok.Src, Birth: tok.Birth, Serial: tok.Serial}
						if seen[id] {
							t.Fatalf("round %d: duplicate step-hash identity %+v at slot %d", r, id, sl)
						}
						seen[id] = true
					}
				}
			}
			if s.Metrics().Completed == 0 {
				t.Fatal("no cohort ever delivered; the audit never crossed a delivery round")
			}
		})
	}
}

// TestLazySteadyStateReleasesBuffers pins the memory story the lazy store
// exists for: in a no-query steady state the only live token buffers are
// the delivering cohort's, recycled through the per-shard pool — the
// in-flight population is never materialized.
func TestLazySteadyStateReleasesBuffers(t *testing.T) {
	const n = 256
	e := newEngine(n, churn.FixedLaw{Count: 2})
	p := lazyTestParams()
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	for r := 0; r < 4*p.WalkLength; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	live, pooled := 0, 0
	for i := range s.shards {
		ss := &s.shards[i]
		for _, buf := range ss.lzToks {
			if buf != nil {
				live++
			}
		}
		pooled += len(ss.lzFree)
	}
	if live != 0 {
		t.Fatalf("%d cohort buffers still live in steady state, want 0 (delivery must release)", live)
	}
	if pooled != len(s.shards) {
		t.Fatalf("pool holds %d buffers, want exactly one per shard (%d)", pooled, len(s.shards))
	}
}

// TestLazyRingReplacedSetExactWithinWindow pins the ring's own replacement
// record: with slots churning several times inside the T+2-round window,
// every retained round's bitset must equal that round's ChurnedThisRound —
// including rounds before a slot's latest replacement, which the engine's
// join-round record cannot answer.
func TestLazyRingReplacedSetExactWithinWindow(t *testing.T) {
	const n, rounds = 48, 40
	e := newEngine(n, churn.FixedLaw{Count: 6}, 3, 4)
	s := NewSoup(e, lazyTestParams(), 0)
	e.AddHook(s)
	truth := make([][]int, rounds)
	for r := 0; r < rounds; r++ {
		e.RunRound(simnet.NopHandler{})
		truth[r] = slices.Clone(e.ChurnedThisRound())
	}
	lz := s.lz
	sawRechurn := false
	for r := rounds - lz.depth; r < rounds; r++ {
		ring := lz.entry(r)
		if len(ring.idDeltas) != len(truth[r]) {
			t.Fatalf("round %d: %d occupant changes recorded, %d slots churned", r, len(ring.idDeltas), len(truth[r]))
		}
		for slot := 0; slot < n; slot++ {
			want := slices.Contains(truth[r], slot)
			if got := lzReplaced(ring.death, int32(slot)); got != want {
				t.Fatalf("round %d slot %d: ring says replaced = %v, want %v", r, slot, got, want)
			}
			if want && e.JoinRound(slot) > r {
				sawRechurn = true
			}
		}
	}
	if !sawRechurn {
		t.Fatal("no slot churned twice inside the window; raise churn")
	}
}
