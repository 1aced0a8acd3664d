package walks

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
)

func cmpSample(a, b Sample) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Birth, b.Birth)
}

// runAgainstReference drives a soup and the uncapped reference model on
// one engine for rounds rounds, comparing them every round. The soup keeps
// a sample order of its own: per-slot sample multisets must be equal,
// Metrics() must equal the reference's tallies of the cohorts delivered so
// far (born <= r-T+1), and Generated == Completed + Died.
func runAgainstReference(t *testing.T, p Params, workers, n, rounds int) {
	t.Helper()
	runAgainstReferenceShards(t, p, workers, 0, n, rounds)
}

// runAgainstReferenceShards is runAgainstReference with an explicit shard
// count (0 = the engine's adaptive default).
func runAgainstReferenceShards(t *testing.T, p Params, workers, shards, n, rounds int) {
	t.Helper()
	runAgainstReferenceOn(t, newRefEngine(n, workers, shards, simnet.EdgesRerandomize), p, workers, rounds)
}

// newRefEngine builds the churning engine the reference legs run on, its
// crew as large as the soup's lanes.
func newRefEngine(n, workers, shards int, edges simnet.EdgeMode) *simnet.Engine {
	return simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: edges, Shards: shards, Workers: workers,
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
	ref := NewReference(e, p, 0, 0)
	e.AddHook(soup)
	e.AddHook(ref)
	for r := 0; r < rounds; r++ {
		e.RunRound(simnet.NopHandler{})
		m := soup.Metrics()
		if want := ref.Delivered(r - p.WalkLength + 1); m != want {
			t.Fatalf("round %d workers=%d: metrics diverged from the delivered cohorts' tallies:\nsoup      %+v\nreference %+v", r, workers, m, want)
		}
		if m.Generated != m.Completed+m.Died {
			t.Fatalf("round %d workers=%d: Generated != Completed + Died: %+v", r, workers, m)
		}
		for slot := 0; slot < n; slot++ {
			gotS := slices.Clone(soup.Samples(slot))
			wantS := slices.Clone(ref.Samples(slot))
			if len(gotS) != len(wantS) {
				t.Fatalf("round %d slot %d: %d samples, reference %d", r, slot, len(gotS), len(wantS))
			}
			slices.SortFunc(gotS, cmpSample)
			slices.SortFunc(wantS, cmpSample)
			for i := range wantS {
				if gotS[i] != wantS[i] {
					t.Fatalf("round %d slot %d sample %d: %+v, reference %+v", r, slot, i, gotS[i], wantS[i])
				}
			}
		}
	}
	return soup
}

// TestLazyMatchesReference is the bugfix safety net for the lazy
// trajectory evaluator: several hundred rounds of churn, compared
// against the naive reference model every round — per-slot sample
// multisets, the delivered cohorts' metrics and
// Generated == Completed + Died — at worker counts 1, 3, and GOMAXPROCS.
func TestLazyMatchesReference(t *testing.T) {
	p := Params{WalksPerRound: 3, WalkLength: 7}
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
	p := Params{WalksPerRound: 3, WalkLength: 7}
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
		p := Params{WalksPerRound: 2, WalkLength: T}
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
	p := Params{WalksPerRound: 3, WalkLength: 7}
	for _, workers := range []int{1, 3} {
		for _, n := range []int{50, 128} {
			e := newRefEngine(n, workers, 0, simnet.EdgesStatic)
			e.AddHook(&portSwapper{r: rng.New(uint64(n))})
			soup := runAgainstReferenceOn(t, e, p, workers, 300)
			if last := soup.entry(e.Round() - 1); last.disrupted || len(last.deltas) == 0 {
				t.Fatalf("workers=%d n=%d: the last ring entry holds no deltas (disrupted=%v)",
					workers, n, last.disrupted)
			}
		}
	}
}
