package walks

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/expander"
	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
)

// refSoup is the naive reference model: the pre-columnar per-slot-bucket
// implementation (PR 2's walks.go), transcribed serially. Buckets are
// []Token slices, the exchange appends arrivals destination-by-destination
// in ascending source-slot order (shard slot ranges are contiguous and
// ascending, so this equals the sharded implementation's (srcShard,
// srcSlot, seq) merge order), and the three preludes — churn death, sample
// clearing, generation — run as explicit serial loops. It shares only
// stepHash with the production code. Serials follow the walk-identity rule
// (DESIGN.md §6): fresh walks 0 … WalksPerRound-1, injected walks from
// WalksPerRound upward until the next StepRound. Every event is counted
// twice: in m in the round it happens (the capped store's contract) and in
// cohorts under the walk's birth round (the lazy store books a cohort when
// it is delivered).
type refSoup struct {
	p        Params
	n        int
	seed     uint64
	buckets  [][]Token
	samples  [][]Sample
	injected []int // per slot: walks injected since the last StepRound
	m        Metrics
	cohorts  []Metrics // indexed by birth round
}

func newRefSoup(e *simnet.Engine, p Params) *refSoup {
	if p.Deadline < p.WalkLength {
		p.Deadline = p.WalkLength
	}
	n := e.N()
	return &refSoup{
		p: p, n: n, seed: e.Config().ProtocolSeed,
		buckets:  make([][]Token, n),
		samples:  make([][]Sample, n),
		injected: make([]int, n),
	}
}

// cohort returns the tally of the walks born in round birth.
func (s *refSoup) cohort(birth int32) *Metrics {
	for int(birth) >= len(s.cohorts) {
		s.cohorts = append(s.cohorts, Metrics{})
	}
	return &s.cohorts[birth]
}

// delivered sums the tallies of every cohort born in or before round last:
// what a lazy soup has booked once cohort last is delivered.
func (s *refSoup) delivered(last int) Metrics {
	var m Metrics
	for b := 0; b <= last && b < len(s.cohorts); b++ {
		m.add(&s.cohorts[b])
	}
	return m
}

func (s *refSoup) Inject(e *simnet.Engine, slot, count, round int) int {
	id := e.IDAt(slot)
	base := s.p.WalksPerRound + s.injected[slot]
	if limit := 1<<16 - base; count > limit {
		count = max(limit, 0)
	}
	for k := 0; k < count; k++ {
		s.buckets[slot] = append(s.buckets[slot], Token{
			Src: id, Birth: int32(round), Serial: uint16(base + k),
			Steps: uint16(s.p.WalkLength),
		})
	}
	s.injected[slot] += count
	s.m.Generated += int64(count)
	s.cohort(int32(round)).Generated += int64(count)
	return count
}

func (s *refSoup) StepRound(e *simnet.Engine, round int) {
	// 1. Tokens at churned slots die with their carriers.
	for _, slot := range e.ChurnedThisRound() {
		s.m.Died += int64(len(s.buckets[slot]))
		for _, t := range s.buckets[slot] {
			s.cohort(t.Birth).Died++
		}
		s.buckets[slot] = s.buckets[slot][:0]
	}
	// 2. Clear last round's samples.
	for i := range s.samples {
		s.samples[i] = s.samples[i][:0]
	}
	// 3. Generate fresh walks, numbered by their index in the batch.
	clear(s.injected)
	for slot := 0; slot < s.n; slot++ {
		id := e.IDAt(slot)
		for k := 0; k < s.p.WalksPerRound; k++ {
			s.buckets[slot] = append(s.buckets[slot], Token{
				Src: id, Birth: int32(round), Serial: uint16(k),
				Steps: uint16(s.p.WalkLength),
			})
		}
		s.m.Generated += int64(s.p.WalksPerRound)
		s.cohort(int32(round)).Generated += int64(s.p.WalksPerRound)
	}
	// 4. Move every token one step, slot-major; arrivals append in
	// ascending source-slot order.
	g := e.Graph()
	d := uint64(g.Degree())
	arrivalT := make([][]Token, s.n)
	arrivalS := make([][]Sample, s.n)
	for slot := 0; slot < s.n; slot++ {
		bucket := s.buckets[slot]
		budget := len(bucket)
		if s.p.ForwardCap > 0 && budget > s.p.ForwardCap {
			budget = s.p.ForwardCap
			s.m.Deferred += int64(len(bucket) - budget)
		}
		keep := bucket[:0]
		for i := range bucket {
			t := bucket[i]
			if round-int(t.Birth) > s.p.Deadline {
				s.m.Overdue++
				s.cohort(t.Birth).Overdue++
				continue
			}
			if i >= budget {
				keep = append(keep, t)
				continue
			}
			h := stepHash(s.seed, round, t.Src, t.Birth, t.Serial)
			dst := slot
			if lazyStay := s.p.Lazy && h>>63 == 1; !lazyStay {
				if s.p.Lazy {
					h <<= 1
				}
				port, _ := bits.Mul64(h, d)
				dst = int(g.Neighbor(slot, int(port)))
			}
			t.Steps--
			s.m.Moves++
			s.cohort(t.Birth).Moves++
			if t.Steps == 0 {
				s.m.Completed++
				s.cohort(t.Birth).Completed++
				arrivalS[dst] = append(arrivalS[dst], Sample{Src: t.Src, Birth: t.Birth})
			} else {
				arrivalT[dst] = append(arrivalT[dst], t)
			}
		}
		s.buckets[slot] = keep
	}
	for slot := 0; slot < s.n; slot++ {
		s.buckets[slot] = append(s.buckets[slot], arrivalT[slot]...)
		s.samples[slot] = append(s.samples[slot], arrivalS[slot]...)
	}
}

func cmpSample(a, b Sample) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Birth, b.Birth)
}

// runAgainstReference drives a soup and the reference model on one engine
// for rounds rounds (with periodic Injects, some of them two calls on one
// slot), comparing them every round. The capped store (p.ForwardCap > 0)
// must match bit for bit: bucket contents and order, TotalTokens, sample
// order and every metric as it happens. The lazy store holds no buckets
// and keeps a sample order of its own: per-slot sample multisets must be
// equal, Metrics() must equal the reference's tallies of the cohorts
// delivered so far (born <= r-T+1), and Generated == Completed + Died.
func runAgainstReference(t *testing.T, p Params, workers, n, rounds int) {
	t.Helper()
	runAgainstReferenceShards(t, p, workers, 0, n, rounds)
}

// runAgainstReferenceShards is runAgainstReference with an explicit shard
// count (0 = the engine's adaptive default).
func runAgainstReferenceShards(t *testing.T, p Params, workers, shards, n, rounds int) {
	t.Helper()
	runAgainstReferenceOn(t, newRefEngine(n, shards, expander.Rerandomize), p, workers, rounds)
}

// newRefEngine builds the churning engine the reference legs run on.
func newRefEngine(n, shards int, edges expander.EdgeMode) *simnet.Engine {
	return simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: edges, Shards: shards,
		AdversarySeed: 11, ProtocolSeed: 12,
		Strategy: churn.Uniform, Law: churn.FixedLaw{Count: 3},
	})
}

// runAgainstReferenceOn is the comparison loop on a caller-built engine
// (whose own hooks, if any, run before the soup's), returning the soup.
func runAgainstReferenceOn(t *testing.T, e *simnet.Engine, p Params, workers, rounds int) *Soup {
	t.Helper()
	n := e.N()
	soup := NewSoup(e, p, workers)
	ref := newRefSoup(e, p)
	e.AddHook(soup)
	e.AddHook(ref)
	capped := p.ForwardCap > 0
	var tokScratch []Token
	for r := 0; r < rounds; r++ {
		if r%37 == 5 {
			slot := (r * 13) % n
			for call := 0; call <= r%2; call++ { // odd rounds: a second call continues the serials
				got := soup.Inject(e, slot, 40, e.Round())
				want := ref.Inject(e, slot, 40, e.Round())
				if got != want {
					t.Fatalf("round %d: Inject returned %d, reference %d", r, got, want)
				}
			}
		}
		e.RunRound(simnet.NopHandler{})
		m := soup.Metrics()
		if capped {
			if m != ref.m {
				t.Fatalf("round %d workers=%d: metrics diverged:\ncolumnar  %+v\nreference %+v", r, workers, m, ref.m)
			}
			refTotal := 0
			for slot := 0; slot < n; slot++ {
				refTotal += len(ref.buckets[slot])
			}
			if got := soup.TotalTokens(); got != refTotal {
				t.Fatalf("round %d: TotalTokens = %d, reference %d", r, got, refTotal)
			}
		} else {
			if want := ref.delivered(r - p.WalkLength + 1); m != want {
				t.Fatalf("round %d workers=%d: metrics diverged from the delivered cohorts' tallies:\nlazy      %+v\nreference %+v", r, workers, m, want)
			}
			if m.Generated != m.Completed+m.Died {
				t.Fatalf("round %d workers=%d: Generated != Completed + Died: %+v", r, workers, m)
			}
		}
		for slot := 0; slot < n; slot++ {
			gotS := soup.Samples(slot)
			wantS := ref.samples[slot]
			if len(gotS) != len(wantS) {
				t.Fatalf("round %d slot %d: %d samples, reference %d", r, slot, len(gotS), len(wantS))
			}
			if capped {
				tokScratch = soup.AppendTokens(slot, tokScratch[:0])
				if !slices.Equal(tokScratch, ref.buckets[slot]) {
					t.Fatalf("round %d slot %d: bucket diverged:\ncolumnar  %+v\nreference %+v",
						r, slot, tokScratch, ref.buckets[slot])
				}
			} else {
				gotS = slices.Clone(gotS)
				wantS = slices.Clone(wantS)
				slices.SortFunc(gotS, cmpSample)
				slices.SortFunc(wantS, cmpSample)
			}
			for i := range wantS {
				if gotS[i] != wantS[i] {
					t.Fatalf("round %d slot %d sample %d: %+v, reference %+v (capped=%v)",
						r, slot, i, gotS[i], wantS[i], capped)
				}
			}
		}
	}
	return soup
}

// TestColumnarMatchesReferenceCapped pins the capped path — the
// materialized slot-major store rebuilt by the counting-sort gather — to
// the old per-slot-bucket semantics bit for bit: bucket contents AND
// ordering, sample streams, and every metric, for several hundred rounds
// under churn + ForwardCap + Lazy + periodic injection, at worker counts
// 1, 3, and GOMAXPROCS.
func TestColumnarMatchesReferenceCapped(t *testing.T) {
	p := Params{WalksPerRound: 3, WalkLength: 7, Deadline: 20, ForwardCap: 25, Lazy: true}
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		for _, n := range []int{50, 128} { // 50 < shard.Count exercises empty shards
			runAgainstReference(t, p, workers, n, 300)
		}
	}
}

// TestLazyMatchesReference is the bugfix safety net for the lazy
// trajectory evaluator: several hundred rounds of churn + Lazy + periodic
// injection, compared against the naive reference model every round —
// per-slot sample multisets, the delivered cohorts' metrics and
// Generated == Completed + Died — at worker counts 1, 3, and GOMAXPROCS.
func TestLazyMatchesReference(t *testing.T) {
	p := Params{WalksPerRound: 3, WalkLength: 7, Deadline: 20, Lazy: true}
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		for _, n := range []int{50, 128} { // 50 < shard.Count exercises empty shards
			runAgainstReference(t, p, workers, n, 300)
		}
	}
}

// TestLazyMatchesReferenceShardCounts re-runs the lazy oracle at pinned
// non-default shard counts — the grid floor (16) and ceiling (256) — so the
// adaptive Pick cannot mask a grid-geometry bug. At 256 shards on n=128
// more than half the shards own zero slots; per-slot multisets and metrics
// must still match the serial reference exactly.
func TestLazyMatchesReferenceShardCounts(t *testing.T) {
	p := Params{WalksPerRound: 3, WalkLength: 7, Deadline: 20, Lazy: true}
	for _, shards := range []int{16, 256} {
		for _, workers := range []int{1, 3} {
			runAgainstReferenceShards(t, p, workers, shards, 128, 200)
		}
	}
}

// TestLazyMatchesReferenceShortWalks covers the T=1 and T=2 degenerate
// ring geometries (a cohort delivering the round it is born; a ring of
// minimum depth) that the default-length oracle never reaches.
func TestLazyMatchesReferenceShortWalks(t *testing.T) {
	for _, T := range []int{1, 2} {
		p := Params{WalksPerRound: 2, WalkLength: T, Deadline: 3 * T, Lazy: true}
		runAgainstReference(t, p, 1, 64, 120)
		runAgainstReference(t, p, 3, 64, 120)
	}
}

// portSwapper is a round hook that exchanges the targets of a few random
// port pairs every round through Graph.SetPort, so a Static topology still
// changes, by journal deltas only.
type portSwapper struct{ r *rng.Stream }

func (ps *portSwapper) StepRound(e *simnet.Engine, round int) {
	g := e.Graph()
	n, d := g.N(), g.Degree()
	for k := 0; k < 3; k++ {
		u, p := ps.r.Intn(n), ps.r.Intn(d)
		v, q := ps.r.Intn(n), ps.r.Intn(d)
		a, b := g.Neighbor(u, p), g.Neighbor(v, q)
		g.SetPort(u, p, b)
		g.SetPort(v, q, a)
	}
}

// TestDeltaRingMatchesReference pins the lazy store's delta-encoded ring
// against the reference model. Every other reference leg runs Rerandomize,
// whose rounds are all recorded as snapshots, so there rowAt and
// advanceTail never apply a journal delta. Here the edges are Static and a
// hook registered before the soup rewires a few ports a round, so every
// ring entry after the first is a delta list, and the replay row and the
// tail must both step through them.
func TestDeltaRingMatchesReference(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		p := Params{WalksPerRound: 3, WalkLength: 7, Deadline: 20, Lazy: lazy}
		for _, workers := range []int{1, 3} {
			for _, n := range []int{50, 128} {
				e := newRefEngine(n, 0, expander.Static)
				e.AddHook(&portSwapper{r: rng.New(uint64(n))})
				soup := runAgainstReferenceOn(t, e, p, workers, 300)
				if last := soup.lz.entry(e.Round() - 1); last.disrupted || len(last.deltas) == 0 {
					t.Fatalf("lazy=%v workers=%d n=%d: the last ring entry holds no deltas (disrupted=%v)",
						lazy, workers, n, last.disrupted)
				}
			}
		}
	}
}
