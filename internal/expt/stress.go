package expt

import (
	"math"
	"slices"

	"dynp2p"
	"dynp2p/internal/churn"
	"dynp2p/internal/expt/baseline"
	"dynp2p/internal/protocol"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// retrievalRate stores one item and issues searches, returning the success
// fraction and the messages sent per search. Only the search phase's
// messages count, so msgs is the marginal retrieval cost, not store+upkeep.
func retrievalRate(nw *dynp2p.Network, key uint64, searches int) (rate, msgs float64) {
	data := itemData(key, 48)
	mustStore(nw, key, data)
	nw.Run(nw.Tunables().Protocol.Period + 4)
	n := nw.N()
	before := nw.Stats().Engine.MsgsSent
	for i := 0; i < searches; i++ {
		nw.Retrieve((i*211+13)%n, key, data)
	}
	nw.Run(nw.Tunables().Protocol.SearchTTL() + 6)
	ok, got := 0, 0
	for _, r := range nw.Results() {
		got++
		if r.Success {
			ok++
		}
	}
	if got > 0 {
		rate = float64(ok) / float64(got)
	}
	return rate, float64(nw.Stats().Engine.MsgsSent-before) / float64(searches)
}

// E11ChurnStress probes the paper's §5 conjecture: random-walk approaches
// have a fundamental limit near churn Ω(n/log n), because at that rate a
// constant fraction of nodes is replaced within one mixing time. The table
// sweeps churn as a fraction of n/ln n and locates the knee.
func E11ChurnStress(scale Scale) *Table {
	t := &Table{
		ID:    "E11",
		Title: "breakdown near churn n/log n (§5 conjecture)",
		Claim: "success is high while churn << n/log n (e.g. at the paper's " +
			"n/log^{1+delta} n) and collapses as churn approaches n/log n",
		Header: []string{"churn/(n/ln n)", "churn/rnd", "%replaced/rnd", "walk-survival", "retrieval"},
	}
	n := 1024
	searches := 8
	if scale == Full {
		n = 2048
		searches = 16
	}
	ln := math.Log(float64(n))
	fracs := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	if scale == Full {
		fracs = append(fracs, 1.5)
	}
	for _, frac := range fracs {
		perRound := int(frac * float64(n) / ln)
		// With delta -> 0 the facade's law C·n/ln^{1+delta} n approaches
		// frac·(n/ln n), the sweep variable of the conjecture.
		nw := dynp2p.New(dynp2p.Config{
			N: n, ChurnRate: frac, ChurnDelta: 0.0001, Seed: 0xE11,
		})
		nw.Run(nw.WarmupRounds())
		rate, _ := retrievalRate(nw, 5, searches)
		sm := nw.Stats().Soup
		resolved := sm.Completed + sm.Died
		survival := 0.0
		if resolved > 0 {
			survival = float64(sm.Completed) / float64(resolved)
		}
		t.AddRow(f2(frac), d(perRound), pct(float64(perRound)/float64(n)),
			pct(survival), pct(rate))
	}
	t.AddNote("the paper's tolerated rate n/log^{1+delta} n sits at fraction 1/ln^delta(n) " +
		"of n/ln n — the low end of this sweep, where retrieval stays high.")
	return t
}

// E12BaselineComparison reproduces the §1.3 separation: structured DHTs
// and flooding against the paper's protocol under identical churn.
func E12BaselineComparison(scale Scale) *Table {
	t := &Table{
		ID:    "E12",
		Title: "dynp2p vs Chord-like DHT vs flooding under churn (§1.3)",
		Claim: "the DHT's lookups degrade sharply under heavy churn and flooding " +
			"pays Theta(n) messages; the protocol keeps succeeding at polylog cost",
		Header: []string{"churn/rnd", "system", "success", "msgs/search", "ring-health"},
	}
	n := 512
	searches := 8
	if scale == Full {
		n = 1024
		searches = 16
	}
	levels := []int{1, n / 100, n / 25}
	for _, perRound := range levels {
		law := churn.FixedLaw{Count: perRound}

		// --- dynp2p ---
		{
			c := float64(perRound) * math.Log(float64(n)) / float64(n)
			nw := dynp2p.New(dynp2p.Config{N: n, ChurnRate: c, ChurnDelta: 0.0001, Seed: 0xE12})
			nw.Run(nw.WarmupRounds())
			rate, msgs := retrievalRate(nw, 21, searches)
			t.AddRow(d(perRound), "dynp2p", pct(rate), f2(msgs), "-")
		}

		// --- DHT ---
		{
			e := soupEngine(n, law, 0xD12)
			h := baseline.NewChord(n)
			e.RunRound(h)
			h.Bootstrap(e)
			rate, msgs := baselineSearches(e, h, searches, 80)
			t.AddRow(d(perRound), "chord-dht", pct(rate), f2(msgs), f3(h.RingHealth(e)))
		}

		// --- flooding ---
		{
			e := soupEngine(n, law, 0xF12)
			h := baseline.NewFlood(n)
			e.RunRound(h)
			rate, msgs := baselineSearches(e, h, searches, 40)
			t.AddRow(d(perRound), "flooding", pct(rate), f2(msgs), "-")
		}
	}
	t.AddNote("msgs/search for flooding includes the query flood: Theta(n·d) messages each.")
	t.AddNote("ring-health is the fraction of DHT nodes whose successor pointer is globally correct.")
	t.AddNote("dynp2p's search cost is Theta(n^{1/2+o(1)}) messages (sqrt-n landmarks x log factors), " +
		"so flooding can be cheaper at small n; the separation favours dynp2p as n grows, and only " +
		"dynp2p keeps items alive indefinitely (flooded copies decay — E07/E09).")
	t.AddNote("dynp2p's inquiry volume falls with churn because landmark populations are thinner.")
	return t
}

// baselineHandler is what E12 asks of a baseline (package baseline).
type baselineHandler interface {
	simnet.Handler
	RequestStore(e *simnet.Engine, slot int, key uint64, data []byte)
	RequestGet(e *simnet.Engine, slot int, key uint64, ttl int)
	DrainResults(round int) []baseline.Result
}

// baselineSearches stores item 21 on a started baseline, lets it settle for
// 40 rounds, then issues the searches, each failing ttl rounds later, and
// runs until all have resolved or 10 rounds past that. It returns the
// success rate and the messages sent per search over the search phase.
func baselineSearches(e *simnet.Engine, h baselineHandler, searches, ttl int) (rate, msgs float64) {
	h.RequestStore(e, 0, 21, itemData(21, 48))
	e.Run(h, 40)
	before := e.Metrics().MsgsSent
	for i := 0; i < searches; i++ {
		h.RequestGet(e, (i*211+13)%e.N(), 21, ttl)
	}
	deadline := e.Round() + ttl + 10
	ok, got := 0, 0
	for e.Round() < deadline && got < searches {
		e.RunRound(h)
		for _, r := range h.DrainResults(e.Round()) {
			got++
			if r.Success {
				ok++
			}
		}
	}
	if got > 0 {
		rate = float64(ok) / float64(got)
	}
	return rate, float64(e.Metrics().MsgsSent-before) / float64(searches)
}

// E13Ablations sweeps the design knobs the paper fixes by analysis —
// walks per round (α), committee size (h), maintenance period, and tree
// depth — one factor at a time.
func E13Ablations(scale Scale) *Table {
	t := &Table{
		ID:    "E13",
		Title: "ablations of the paper's parameter choices",
		Claim: "defaults sit on a plateau: halving walk rate or committee size " +
			"hurts reliability; doubling costs more without gains",
		Header: []string{"variant", "success", "p50-lat", "copies", "bits/node/rnd"},
	}
	n := 512
	searches := 8
	if scale == Full {
		n = 1024
		searches = 16
	}
	// Each variant scales one factor: walksMul, committeeMul, periodMul,
	// depthDelta.
	variants := []struct {
		name string
		tw   tweaks
	}{
		{"defaults", tweaks{1, 1, 1, 0}},
		{"walks x0.5", tweaks{0.5, 1, 1, 0}},
		{"walks x2", tweaks{2, 1, 1, 0}},
		{"committee x0.5", tweaks{1, 0.5, 1, 0}},
		{"committee x2", tweaks{1, 2, 1, 0}},
		{"period x2", tweaks{1, 1, 2, 0}},
		{"tree depth -1", tweaks{1, 1, 1, -1}},
		{"tree depth +1", tweaks{1, 1, 1, +1}},
	}
	for _, v := range variants {
		nw := buildTweaked(dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 0xE13}, v.tw)
		nw.Run(nw.WarmupRounds())
		data := itemData(31, 48)
		mustStore(nw, 31, data)
		nw.Run(nw.Tunables().Protocol.Period + 4)
		for i := 0; i < searches; i++ {
			nw.Retrieve((i*211+13)%n, 31, data)
		}
		nw.Run(nw.Tunables().Protocol.SearchTTL() + 6)
		ok, got := 0, 0
		var lats []float64
		for _, r := range nw.Results() {
			got++
			if r.Success {
				ok++
				lats = append(lats, float64(r.Found-r.Start))
			}
		}
		rate := 0.0
		if got > 0 {
			rate = float64(ok) / float64(got)
		}
		p50 := 0.0
		if len(lats) > 0 {
			p50 = median(lats)
		}
		em := nw.Stats().Engine
		bits := float64(em.BitsSent) / float64(n) / float64(em.Rounds)
		t.AddRow(v.name, pct(rate), f2(p50), d(nw.CopyCount(31)), f2(bits))
	}
	t.AddNote("walks multiplier scales alpha (samples per round); committee multiplier scales h.")
	return t
}

// tweaks scales the derived protocol parameters for the ablations.
type tweaks struct {
	walksMul     float64
	committeeMul float64
	periodMul    float64
	depthDelta   int
}

// buildTweaked assembles a network with adjusted parameters.
func buildTweaked(cfg dynp2p.Config, tw tweaks) *dynp2p.Network {
	return dynp2p.NewCustom(cfg, func(wp *walks.Params, pp *protocol.Params) {
		if v := int(float64(wp.WalksPerRound) * tw.walksMul); v >= 1 {
			wp.WalksPerRound = v
		} else {
			wp.WalksPerRound = 1
		}
		if v := int(float64(pp.CommitteeSize) * tw.committeeMul); v >= 4 {
			pp.CommitteeSize = v
		} else {
			pp.CommitteeSize = 4
		}
		if v := int(float64(pp.Period) * tw.periodMul); v > protocol.SampleWindow+8 {
			pp.Period = v
		}
		if v := pp.TreeDepth + tw.depthDelta; v >= 1 {
			pp.TreeDepth = v
		}
	})
}

// median returns the upper median of xs.
func median(xs []float64) float64 {
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return cp[len(cp)/2]
}
