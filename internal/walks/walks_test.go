package walks

import (
	"math"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
	"dynp2p/internal/stats"
)

func newEngine(n int, law churn.Law, seeds ...uint64) *simnet.Engine {
	advSeed, protoSeed := uint64(1), uint64(2)
	if len(seeds) > 0 {
		advSeed = seeds[0]
	}
	if len(seeds) > 1 {
		protoSeed = seeds[1]
	}
	return simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
		AdversarySeed: advSeed, ProtocolSeed: protoSeed,
		Strategy: churn.Uniform, Law: law,
	})
}

// countSamples returns the number of walks delivered network-wide in the
// round that just ran, on the soup or the reference model.
func countSamples(e *simnet.Engine, s interface{ Samples(int) []Sample }) int64 {
	var c int64
	for slot := 0; slot < e.N(); slot++ {
		c += int64(len(s.Samples(slot)))
	}
	return c
}

func TestTokenConservationNoChurn(t *testing.T) {
	// Without churn nothing is lost: every cohort the lazy store has
	// delivered — the ones born by round r-T+1 — was generated in full and
	// completed in full, and each completion is a delivered sample.
	const n = 256
	e := newEngine(n, churn.ZeroLaw{})
	p := Params{WalksPerRound: 3, WalkLength: 10}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	var sampled int64
	for r := 0; r < 30; r++ {
		e.RunRound(simnet.NopHandler{})
		sampled += countSamples(e, s)
		m := s.Metrics()
		if m.Died != 0 {
			t.Fatalf("round %d: unexpected losses %+v", r, m)
		}
		want := int64(n*p.WalksPerRound) * int64(max(0, r-p.WalkLength+2))
		if m.Generated != want || m.Completed != want || sampled != want {
			t.Fatalf("round %d: conservation violated: %+v, %d samples, want %d of each",
				r, m, sampled, want)
		}
	}
}

func TestWalksCompleteInExactlyTRounds(t *testing.T) {
	// With no cap and no churn, a batch injected at round r completes at
	// round r+T-1... the T-th movement. Verify via a single injection on
	// the reference model, the one walk store that injects.
	e := newEngine(128, churn.ZeroLaw{})
	p := Params{WalksPerRound: 0, WalkLength: 5}
	s := NewReference(e, p, 0, 0)
	e.AddHook(s)
	e.RunRound(simnet.NopHandler{}) // round 0, no tokens
	s.Inject(e, 7, 100)
	completedAt := -1
	for r := 1; r <= 10; r++ {
		e.RunRound(simnet.NopHandler{})
		if s.Metrics().Completed == 100 && completedAt < 0 {
			completedAt = r
		}
	}
	if completedAt != 5 {
		t.Fatalf("batch completed at round %d, want 5 (T=5)", completedAt)
	}
}

// TestSamplesCarrySource pins the invariant the soup's staging relies on:
// a delivery is exactly one cohort, so every sample delivered in round r
// was born in round r-T+1, and its source held a slot in that round.
func TestSamplesCarrySource(t *testing.T) {
	const n, rounds = 64, 30
	p := Params{WalksPerRound: 3, WalkLength: 4}
	for _, workers := range []int{1, 3} {
		e := newEngine(n, churn.FixedLaw{Count: 6})
		s := NewSoup(e, p, workers)
		e.AddHook(s)
		held := make([]map[simnet.NodeID]bool, rounds)
		total := 0
		for r := 0; r < rounds; r++ {
			e.RunRound(simnet.NopHandler{})
			held[r] = make(map[simnet.NodeID]bool, n)
			for slot := 0; slot < n; slot++ {
				held[r][e.IDAt(slot)] = true
			}
			b := r - p.WalkLength + 1
			for slot := 0; slot < n; slot++ {
				for _, sample := range s.Samples(slot) {
					if int(sample.Birth) != b {
						t.Fatalf("workers=%d round %d: sample birth %d, want %d", workers, r, sample.Birth, b)
					}
					if !held[b][sample.Src] {
						t.Fatalf("workers=%d round %d: sample src %d held no slot in round %d", workers, r, sample.Src, b)
					}
					total++
				}
			}
		}
		if m := s.Metrics(); total == 0 || int64(total) != m.Completed {
			t.Fatalf("workers=%d: %d samples delivered, %d walks completed", workers, total, m.Completed)
		}
	}
}

func TestChurnKillsTokens(t *testing.T) {
	e := newEngine(64, churn.FixedLaw{Count: 8})
	p := Params{WalksPerRound: 2, WalkLength: 20}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	var sampled int64
	for r := 0; r < 25; r++ {
		e.RunRound(simnet.NopHandler{})
		sampled += countSamples(e, s)
	}
	m := s.Metrics()
	if m.Died == 0 {
		t.Fatal("no tokens died despite churn")
	}
	// Six cohorts are delivered (born in rounds 0 … 5); each is booked whole.
	if want := int64(6 * 64 * p.WalksPerRound); m.Generated != want {
		t.Fatalf("generated = %d, want the delivered cohorts' %d", m.Generated, want)
	}
	if m.Generated != m.Completed+m.Died || m.Completed != sampled {
		t.Fatalf("conservation violated: %+v, %d samples", m, sampled)
	}
}

// TestForwardCapDefersTokens and TestDeadlineEvictsTokens run the
// Reference model: the forwarding cap and the deadline live only there,
// for E02 (Lemma 1).
func TestForwardCapDefersTokens(t *testing.T) {
	e := newEngine(64, churn.ZeroLaw{})
	s := NewReference(e, Params{WalksPerRound: 10, WalkLength: 8}, 5, 80)
	e.AddHook(s)
	for r := 0; r < 10; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	if s.Metrics().Deferred == 0 {
		t.Fatal("tight forward cap never deferred a token")
	}
}

func TestDeadlineEvictsTokens(t *testing.T) {
	// Cap of 1 with 10 generated per round: queues explode, deadline must
	// reclaim them.
	e := newEngine(32, churn.ZeroLaw{})
	s := NewReference(e, Params{WalksPerRound: 10, WalkLength: 8}, 1, 10)
	e.AddHook(s)
	for r := 0; r < 40; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	if s.Metrics().Overdue == 0 {
		t.Fatal("deadline never evicted a token")
	}
	// In-flight population must stay bounded (roughly n * gen * deadline).
	held := 0
	for _, bucket := range s.buckets {
		held += len(bucket)
	}
	if held > 32*10*12 {
		t.Fatalf("token population unbounded: %d", held)
	}
}

func TestMixingToNearUniform(t *testing.T) {
	// Static-node sanity check of the soup's core promise: on an expander
	// without churn, walk endpoints approach uniform. Inject batches from
	// one slot repeatedly into the reference model (which delivers the
	// soup's samples) and check the endpoint histogram's TV distance.
	const n = 512
	e := newEngine(n, churn.ZeroLaw{})
	p := Params{WalksPerRound: 0, WalkLength: 2 * int(math.Ceil(math.Log(n)))}
	s := NewReference(e, p, 0, 0)
	e.AddHook(s)
	e.RunRound(simnet.NopHandler{})
	counts := make([]int, n)
	const batches = 40
	const perBatch = 500
	for b := 0; b < batches; b++ {
		s.Inject(e, 3, perBatch)
		for r := 0; r < p.WalkLength; r++ {
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < n; slot++ {
				counts[slot] += len(s.Samples(slot))
			}
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != batches*perBatch {
		t.Fatalf("lost walks: %d of %d arrived", total, batches*perBatch)
	}
	tv := stats.TVDistanceFromUniform(counts)
	// With 20000 samples over 512 bins, sampling noise alone gives
	// TV ≈ sqrt(512/(2·pi·20000)) ≈ 0.06; mixing error should keep us
	// well under 0.15.
	if tv > 0.15 {
		t.Fatalf("endpoint distribution TV = %v, want < 0.15", tv)
	}
}

func TestDefaultParamsScaling(t *testing.T) {
	p1 := DefaultParams(1000)
	p2 := DefaultParams(1000000)
	if p2.WalkLength <= p1.WalkLength {
		t.Fatal("walk length should grow with n")
	}
	if p1.WalksPerRound < 1 {
		t.Fatal("walks per round must be positive")
	}
}

func TestLazyStepUsesAllPorts(t *testing.T) {
	// Regression test for the fastrange port pick: the port must come from
	// the hash's high bits, or some ports are never taken. On a static
	// topology, the one-step walks slot 0 starts in round 0 must reach
	// every distinct neighbour of that slot.
	e := simnet.New(simnet.Config{
		N: 64, Degree: 8, EdgeMode: simnet.EdgesStatic,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
	})
	s := NewSoup(e, Params{WalksPerRound: 4000, WalkLength: 1}, 0)
	e.AddHook(s)
	srcID := e.IDAt(0)
	neighbors := map[int]bool{}
	for _, w := range e.Graph().Neighbors(0) {
		neighbors[int(w)] = false
	}
	e.RunRound(simnet.NopHandler{})
	for slot := 0; slot < e.N(); slot++ {
		for _, smp := range s.Samples(slot) {
			if smp.Src != srcID {
				continue
			}
			if _, ok := neighbors[slot]; !ok && slot != 0 {
				t.Fatalf("walk landed at %d, not a neighbour of 0", slot)
			}
			neighbors[slot] = true
		}
	}
	for slot, hit := range neighbors {
		if !hit && slot != 0 {
			t.Errorf("neighbour slot %d (a port of slot 0) never reached by 4000 one-step walks", slot)
		}
	}
}

func TestInjectClampsSerialOverflow(t *testing.T) {
	// The per-(source, round) Serial is a uint16 and the round's fresh
	// walks hold 0 … WalksPerRound-1: a slot can be injected at most
	// 65536 − WalksPerRound walks before a StepRound. The reference model
	// counts the injected walks at once and every round's fresh batches as
	// they are generated.
	const n, T = 32, 4
	for _, wpr := range []int{0, 3} {
		room := 1<<16 - wpr
		e := newEngine(n, churn.ZeroLaw{})
		s := NewReference(e, Params{WalksPerRound: wpr, WalkLength: T}, 0, 0)
		e.AddHook(s)
		if got := s.Inject(e, 0, 1<<16+500); got != room {
			t.Fatalf("wpr=%d: injected %d, want %d", wpr, got, room)
		}
		if got := s.Inject(e, 0, 10); got != 0 {
			t.Fatalf("wpr=%d: over-full slot injected %d more, want 0", wpr, got)
		}
		if got := s.Inject(e, 1, 10); got != 10 {
			t.Fatalf("wpr=%d: fresh slot injected %d, want 10", wpr, got)
		}
		e.Run(simnet.NopHandler{}, T)
		if g, want := s.Metrics().Generated, int64(room+10+T*n*wpr); g != want {
			t.Fatalf("wpr=%d: generated = %d after %d rounds, want %d", wpr, g, T, want)
		}
	}
}

func TestInjectClampNoLockstepTokens(t *testing.T) {
	// Regression for the uint16-serial clamp: injecting past the bound must
	// return the clamped count and every accepted walk must be delivered.
	// (TestInjectGenerationSerialDisjoint audits the identities themselves.)
	const T = 4
	for _, wpr := range []int{0, 3} {
		room := 1<<16 - wpr
		e := newEngine(32, churn.ZeroLaw{})
		s := NewReference(e, Params{WalksPerRound: wpr, WalkLength: T}, 0, 0)
		e.AddHook(s)
		if got := s.Inject(e, 3, 1<<16+500); got != room {
			t.Fatalf("wpr=%d: injected %d, want %d", wpr, got, room)
		}
		if got := s.Inject(e, 3, 1); got != 0 {
			t.Fatalf("wpr=%d: over-full slot accepted another token", wpr)
		}
		e.Run(simnet.NopHandler{}, T)
		// Round 0's cohort: the injected walks plus every slot's fresh batch.
		if got, want := countSamples(e, s), int64(room+32*wpr); got != want {
			t.Fatalf("wpr=%d: %d walks of round 0 delivered, want %d", wpr, got, want)
		}
	}
}

// TestStepHashGolden pins the walk coin stream. The soup and the
// reference share the step hash, so a drift in it re-draws both alike and
// no equivalence test sees it; these values fix it. It also checks the
// split the soup's replay relies on: a token's round-invariant stepKey,
// XORed into the round seed, finishes to the same hash as stepMix.
func TestStepHashGolden(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		round  int
		src    simnet.NodeID
		birth  int32
		serial uint16
		want   uint64
	}{
		{0x1, 0, 1, 0, 0, 0x84103fef078ee572},
		{0xc, 57, 123456, 38, 9, 0x9600771de67a15bc},
		{0xdeadbeef, 1 << 20, 1<<40 - 1, 1<<31 - 1, 65535, 0x08397708a7cdf31e},
	} {
		if got := stepHash(c.seed, c.round, c.src, c.birth, c.serial); got != c.want {
			t.Errorf("stepHash(%#x, %d, %d, %d, %d) = %#016x, want %#016x",
				c.seed, c.round, c.src, c.birth, c.serial, got, c.want)
		}
	}
	r := rng.New(36)
	for i := 0; i < 4096; i++ {
		x := r.Uint64()
		src := simnet.NodeID(r.Uint64() >> (r.Uint64() & 63))
		birth, serial := int32(r.Uint64()), uint16(r.Uint64())
		if got, want := stepFinish(x^stepKey(src, birth, serial)), stepMix(x, src, birth, serial); got != want {
			t.Fatalf("stepFinish(x ^ stepKey) = %#x, stepMix = %#x at (%#x, %d, %d, %d)",
				got, want, x, src, birth, serial)
		}
	}
}

func TestNewSoupValidation(t *testing.T) {
	e := newEngine(32, churn.ZeroLaw{})
	for _, p := range []Params{
		{WalkLength: 0},
		{WalkLength: 4, WalksPerRound: -1},
		{WalkLength: 4, WalksPerRound: 1 << 16}, // fresh serials must fit a uint16
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSoup accepted %+v", p)
				}
			}()
			NewSoup(e, p, 0)
		}()
	}
}

func BenchmarkMicroSoupRound(b *testing.B) {
	e := newEngine(4096, churn.PaperLaw(1, 0.5))
	p := DefaultParams(4096)
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	// Warm up to steady-state token population.
	for r := 0; r < p.WalkLength+2; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound(simnet.NopHandler{})
	}
	b.ReportMetric(float64(s.Metrics().Moves)/float64(b.N), "token-moves/round")
}
