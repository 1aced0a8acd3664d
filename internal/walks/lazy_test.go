package walks

import (
	"slices"
	"testing"
	"unsafe"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
)

// lazyTestParams is the standard churny configuration the lazy tests run.
func lazyTestParams() Params {
	return Params{WalksPerRound: 4, WalkLength: 8}
}

// TestLazyDeterministicAcrossWorkerCounts: every observation — each
// round's ordered samples and the metrics — must be identical at every
// worker count even though multi-worker deliveries claim shards in
// scheduling order.
func TestLazyDeterministicAcrossWorkerCounts(t *testing.T) {
	const n, rounds = 128, 48
	run := func(workers int) [][]uint64 {
		e := newEngine(n, churn.FixedLaw{Count: 4}, 51, 52)
		s := NewSoup(e, lazyTestParams(), workers)
		e.AddHook(s)
		trace := make([][]uint64, rounds)
		for r := 0; r < rounds; r++ {
			e.RunRound(simnet.NopHandler{})
			m := s.Metrics()
			rec := []uint64{uint64(m.Generated), uint64(m.Completed), uint64(m.Died), uint64(m.Moves)}
			for slot := 0; slot < n; slot++ {
				for _, sm := range s.Samples(slot) {
					rec = append(rec, uint64(slot), uint64(sm.Src), uint64(sm.Birth))
				}
			}
			trace[r] = rec
		}
		return trace
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		for r := range want {
			if !slices.Equal(got[r], want[r]) {
				t.Fatalf("workers=%d diverges from workers=1 at round %d (%d vs %d observations)",
					workers, r, len(got[r]), len(want[r]))
			}
		}
	}
}

// TestInjectGenerationSerialDisjoint pins the walk-identity invariant on
// the reference model, the one walk store that injects: fresh walks hold
// serials 0 … WalksPerRound-1 and injected walks continue from
// WalksPerRound across calls, so injecting into a slot immediately before
// RunRound — once, twice, or up to the uint16 clamp, into the slot that
// also generates that round — must never mint two tokens sharing a (Src,
// Birth, Serial) step-hash identity (a collision would make the pair walk
// in lock-step forever). The run churns, so the audit also covers the
// replaced-slot path where generation runs under a fresh id while the
// injected tokens died with the old one. The model holds its tokens, so
// every in-flight identity is audited every round.
func TestInjectGenerationSerialDisjoint(t *testing.T) {
	t.Run("reference", func(t *testing.T) {
		const n, rounds, wpr = 64, 40, 3
		p := Params{WalksPerRound: wpr, WalkLength: 6}
		e := newEngine(n, churn.FixedLaw{Count: 5}, 41, 42)
		ref := NewReference(e, p, 0, 0)
		e.AddHook(ref)
		seen := make(map[Token]bool)
		for r := 0; r < rounds; r++ {
			slot := (r * 13) % n
			inject := func(count, want int) {
				t.Helper()
				if got := ref.Inject(e, slot, count); got != want {
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
			for sl, bucket := range ref.buckets {
				for _, tok := range bucket {
					id := Token{Src: tok.Src, Birth: tok.Birth, Serial: tok.Serial}
					if seen[id] {
						t.Fatalf("round %d: duplicate step-hash identity %+v at slot %d", r, id, sl)
					}
					seen[id] = true
				}
			}
		}
		if ref.Metrics().Completed == 0 {
			t.Fatal("no walk ever completed; the run never crossed a delivery round")
		}
	})
}

// TestLazySteadyStateReleasesBuffers pins the memory story the lazy store
// exists for: the in-flight population is never materialized. Between
// deliveries every shard's cohort buffer is empty, and deliveries reuse it
// without growing it — one cohort of n·WalksPerRound 16-byte records in
// all, which is what the memory ledger's cohort gauge reports.
func TestLazySteadyStateReleasesBuffers(t *testing.T) {
	const n = 256
	e := newEngine(n, churn.FixedLaw{Count: 2})
	p := lazyTestParams()
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	for r := 0; r < 4*p.WalkLength; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	for i := range s.shards {
		if held := len(s.shards[i].cohort); held != 0 {
			t.Fatalf("shard %d still holds %d tokens between deliveries, want 0", i, held)
		}
	}
	ring, cohort, samples := s.lzMemBytes()
	if want := int64(n * p.WalksPerRound * 16); cohort != want {
		t.Fatalf("cohort buffers hold %d bytes, want one cohort's %d", cohort, want)
	}
	// A staged sample is its packed source and destination alone: the
	// birth round is the delivering cohort's.
	if sz := unsafe.Sizeof(stagedSmp{}); sz != 8 {
		t.Fatalf("a staged sample is %d bytes, want 8", sz)
	}
	if floor := int64(n * p.WalksPerRound * 8); samples < floor {
		t.Fatalf("sample buffers report %d bytes, below one cohort's staging %d", samples, floor)
	}
	if floor := int64(2 * n * e.Degree() * 4); ring < floor {
		t.Fatalf("ring reports %d bytes, below its two materialized rows' %d", ring, floor)
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
