package expt

import (
	"math"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
	"dynp2p/internal/stats"
	"dynp2p/internal/walks"
)

// soupEngine builds the engine (no protocol) walk experiments run on.
func soupEngine(n int, law churn.Law, seed uint64) *simnet.Engine {
	return simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
		AdversarySeed: seed, ProtocolSeed: seed + 1,
		Strategy: churn.Uniform, Law: law,
	})
}

// soupStack builds an engine+soup pair for walk experiments.
func soupStack(n int, law churn.Law, p walks.Params, seed uint64) (*simnet.Engine, *walks.Soup) {
	e := soupEngine(n, law, seed)
	s := walks.NewSoup(e, p, 0)
	e.AddHook(s)
	return e, s
}

// E01SoupMixing reproduces Theorem 1 (Soup Theorem): under churn up to
// c·n/log^{1+δ} n per round, surviving walks end near-uniformly, so a
// large Core of nodes receives near-uniform samples.
//
// Measured: total-variation distance of walk endpoints from uniform
// (destination marginal and per-tracer-source), the fraction of
// destinations whose empirical hit probability lies in the theorem's
// [1/17n, 3/2n] band, and walk survival. The tracer batches are extra
// walks, which only the walks' reference model injects, so E01 runs on it
// (uncapped, it delivers the soup's samples).
func E01SoupMixing(scale Scale) *Table {
	t := &Table{
		ID:    "E01",
		Title: "Soup Theorem: endpoint uniformity and survival (Thm 1)",
		Claim: "walk endpoints are near-uniform over a Core of n-o(n) nodes; " +
			"pair probabilities in [1/17n, 3/2n]; most walks survive",
		Header: []string{"n", "churn/rnd", "TV(dest)", "TV(tracer)", "band-frac", "survival", "theory"},
	}
	ns := []int{256, 512, 1024}
	if scale == Full {
		ns = append(ns, 2048, 4096)
	}
	const nTracers = 8
	const tracerBatch = 150
	for _, n := range ns {
		law := churn.PaperLaw(1, 0.5)
		p := walks.DefaultParams(n)
		e := soupEngine(n, law, 0xE01)
		s := walks.NewReference(e, p, 0, 0)
		e.AddHook(s)
		warm := 2 * p.WalkLength
		window := 3 * p.WalkLength
		e.Run(simnet.NopHandler{}, warm)

		// Tracer sources: fixed slots; their ids at injection time.
		tracerIDs := make(map[simnet.NodeID]int, nTracers)
		destCounts := make([]int, n)
		tracerCounts := make([][]int, nTracers)
		for i := range tracerCounts {
			tracerCounts[i] = make([]int, n)
		}
		for r := 0; r < window; r++ {
			for i := 0; i < nTracers; i++ {
				slot := (i*n/nTracers + 7) % n
				id := e.IDAt(slot)
				tracerIDs[id] = i
				s.Inject(e, slot, tracerBatch)
			}
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < n; slot++ {
				for _, smp := range s.Samples(slot) {
					destCounts[slot]++
					if ti, ok := tracerIDs[smp.Src]; ok {
						tracerCounts[ti][slot]++
					}
				}
			}
		}
		tvDest := stats.TVDistanceFromUniform(destCounts)
		var tvTracer float64
		var bandFrac float64
		for i := range tracerCounts {
			tvTracer += stats.TVDistanceFromUniform(tracerCounts[i])
			total := 0
			for _, c := range tracerCounts[i] {
				total += c
			}
			bandFrac += stats.FractionInBand(tracerCounts[i], total,
				1/(17*float64(n)), 1.5/float64(n))
		}
		tvTracer /= nTracers
		bandFrac /= nTracers
		// Survival over the delivered cohorts, as the soup counts it.
		m := s.Delivered(e.Round() - p.WalkLength)
		survival := float64(m.Completed) / float64(m.Completed+m.Died)
		// A walk survives T rounds of churn with probability about
		// (1 - churn/n)^T = exp(-T*churn/n); with the paper's law that is
		// exp(-Theta(1/log^{delta/2} n)) -> 1, but only slowly.
		theory := math.Exp(-float64(p.WalkLength) * float64(law.PerRound(n, 0)) / float64(n))
		t.AddRow(d(n), d(law.PerRound(n, 0)), f4(tvDest), f3(tvTracer), pct(bandFrac),
			pct(survival), pct(theory))
	}
	t.AddNote("TV(dest) should stay small and not grow with n (near-uniform endpoints).")
	t.AddNote("band-frac is the Core estimate: fraction of destinations inside [1/17n, 3/2n].")
	t.AddNote("survival tracks exp(-T*churn/n): the paper's 1-o(1) bound kicks in only as log n grows.")
	return t
}

// E02WalkCompletion reproduces Lemma 1: with the forwarding cap at the
// paper's 2h·log n, every walk still completes its T steps within
// τ = O(log n) rounds; tighter caps defer and eventually drop walks. The
// soup has no cap, so E02 runs the walks' reference model, which does.
func E02WalkCompletion(scale Scale) *Table {
	t := &Table{
		ID:    "E02",
		Title: "walk completion under the forwarding cap (Lemma 1)",
		Claim: "with cap >= 2x generation rate, all walks complete T steps in " +
			"tau rounds w.h.p.; delay concentrates at exactly T",
		Header: []string{"cap/gen", "mean-delay", "p99-delay", "T", "overdue", "deferred/rnd"},
	}
	n := 512
	if scale == Full {
		n = 1024
	}
	p := walks.DefaultParams(n)
	gen := p.WalksPerRound
	for _, mult := range []float64{0, 4, 2, 1, 0.5} {
		// Steady-state tokens per node is gen*T; the cap is stated relative
		// to that (the paper's 2h log n vs h log n walks). 0 is no cap.
		forwardCap := int(math.Ceil(mult * float64(gen) * float64(p.WalkLength)))
		e := soupEngine(n, churn.PaperLaw(1, 0.5), 0xE02)
		s := walks.NewReference(e, p, forwardCap, 4*p.WalkLength)
		e.AddHook(s)
		warm := 2 * p.WalkLength
		window := 3 * p.WalkLength
		e.Run(simnet.NopHandler{}, warm)
		var delays stats.Counter
		for r := 0; r < window; r++ {
			e.RunRound(simnet.NopHandler{})
			round := e.Round() - 1
			for slot := 0; slot < n; slot++ {
				for _, smp := range s.Samples(slot) {
					delays.Add(round - int(smp.Birth) + 1)
				}
			}
		}
		m := s.Metrics()
		label := "inf"
		if mult > 0 {
			label = f2(mult)
		}
		deferredPerRound := float64(m.Deferred) / float64(warm+window)
		t.AddRow(label, f2(delays.Mean()), d(delays.Quantile(0.99)), d(p.WalkLength),
			d64(m.Overdue), f2(deferredPerRound))
	}
	t.AddNote("cap/gen is the forwarding cap relative to steady-state tokens per node (gen*T).")
	t.AddNote("at cap >= 2x (the paper's 2h log n), p99 delay == T and overdue == 0.")
	return t
}

// E03WalkSurvival reproduces Lemma 2: the fraction of walks killed by
// churn scales with T·churn/n, so most sources' walks survive the mixing
// time.
func E03WalkSurvival(scale Scale) *Table {
	t := &Table{
		ID:    "E03",
		Title: "walk survival vs churn rate (Lemma 2)",
		Claim: "|S| >= n - 4n/log^{(k-1)/2} n sources have walk-death probability " +
			"<= 1/log^{(k-1)/2} n; losses scale linearly in churn",
		Header: []string{"churn C", "churn/rnd", "died-frac", "T*churn/n (theory)", "survival"},
	}
	n := 512
	if scale == Full {
		n = 2048
	}
	p := walks.DefaultParams(n)
	for _, c := range []float64{0.5, 1, 2, 4} {
		law := churn.PaperLaw(c, 0.5)
		e, s := soupStack(n, law, p, 0xE03)
		e.Run(simnet.NopHandler{}, 2*p.WalkLength+3*p.WalkLength)
		m := s.Metrics()
		died := float64(m.Died) / float64(m.Completed+m.Died)
		theory := float64(p.WalkLength) * float64(law.PerRound(n, 0)) / float64(n)
		t.AddRow(f2(c), d(law.PerRound(n, 0)), f4(died), f4(theory), pct(1-died))
	}
	t.AddNote("died-frac grows linearly in churn and tracks 1-exp(-T*churn/n); the paper's " +
		"o(1) bound is the asymptotic limit of this curve as log n grows.")
	return t
}

// E04ReceiptBounds reproduces Lemmas 5+6: in steady state every (Core)
// node receives Θ(log n) walk samples per round — enough to elect
// committees — and the counts concentrate.
func E04ReceiptBounds(scale Scale) *Table {
	t := &Table{
		ID:    "E04",
		Title: "per-round sample receipts concentrate (Lemmas 5, 6)",
		Claim: "every Core node receives >= alpha*log(n)/36 walks per round w.h.p.; " +
			"receipts concentrate around the generation rate",
		Header: []string{"n", "gen", "expected", "mean", "p05", "frac>=1"},
	}
	ns := []int{256, 512, 1024}
	if scale == Full {
		ns = append(ns, 2048)
	}
	for _, n := range ns {
		p := walks.DefaultParams(n)
		e, s := soupStack(n, churn.PaperLaw(1, 0.5), p, 0xE04)
		e.Run(simnet.NopHandler{}, 2*p.WalkLength)
		window := 2 * p.WalkLength
		var all []float64
		atLeast := 0
		total := 0
		for r := 0; r < window; r++ {
			e.RunRound(simnet.NopHandler{})
			justRun := e.Round() - 1
			for slot := 0; slot < n; slot++ {
				if e.ReplacedInRound(slot, justRun) {
					continue // fresh nodes are outside the Core
				}
				c := float64(len(s.Samples(slot)))
				all = append(all, c)
				total++
				if c >= 1 {
					atLeast++
				}
			}
		}
		sm := stats.Summarize(all)
		m := s.Metrics()
		survival := float64(m.Completed) / float64(m.Completed+m.Died)
		expected := float64(p.WalksPerRound) * survival
		t.AddRow(d(n), d(p.WalksPerRound), f2(expected), f2(sm.Mean), f2(sm.P05),
			pct(float64(atLeast)/float64(total)))
	}
	t.AddNote("expected = generation rate x walk survival; receipts concentrate around it (Lemma 5/6 shape).")
	t.AddNote("frac>=1 is the share of Core nodes sampled every single round — committee election feasibility.")
	return t
}
