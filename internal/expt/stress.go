package expt

import (
	"math"

	"dynp2p"
	"dynp2p/internal/churn"
	"dynp2p/internal/dht"
	"dynp2p/internal/flood"
	"dynp2p/internal/protocol"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// retrievalRate stores one item and issues searches, returning the success
// fraction.
func retrievalRate(nw *dynp2p.Network, key uint64, searches int) float64 {
	data := itemData(key, 48)
	mustStore(nw, key, data)
	nw.Run(nw.Tunables().Protocol.Period + 4)
	n := nw.N()
	for i := 0; i < searches; i++ {
		nw.Retrieve((i*211+13)%n, key, data)
	}
	nw.Run(nw.Tunables().Protocol.SearchTTL + 6)
	ok := 0
	got := 0
	for _, r := range nw.Results() {
		got++
		if r.Success {
			ok++
		}
	}
	if got == 0 {
		return 0
	}
	return float64(ok) / float64(got)
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
		rate := retrievalRate(nw, 5, searches)
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
			data := itemData(21, 48)
			mustStore(nw, 21, data)
			nw.Run(nw.Tunables().Protocol.Period + 4)
			// Count messages over the search phase only, so msgs/search
			// is the marginal retrieval cost, not store+upkeep.
			before := nw.Stats().Engine.MsgsSent
			for i := 0; i < searches; i++ {
				nw.Retrieve((i*211+13)%n, 21, data)
			}
			nw.Run(nw.Tunables().Protocol.SearchTTL + 6)
			ok, got := 0, 0
			for _, r := range nw.Results() {
				got++
				if r.Success {
					ok++
				}
			}
			rate := 0.0
			if got > 0 {
				rate = float64(ok) / float64(got)
			}
			msgs := float64(nw.Stats().Engine.MsgsSent-before) / float64(searches)
			t.AddRow(d(perRound), "dynp2p", pct(rate), f2(msgs), "-")
		}

		// --- DHT ---
		{
			e := simnet.New(simnet.Config{
				N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
				AdversarySeed: 0xD12, ProtocolSeed: 0xD13,
				Strategy: churn.Uniform, Law: law,
			})
			h := dht.NewHandler(n)
			e.RunRound(h)
			h.Bootstrap(e)
			data := itemData(21, 48)
			h.RequestStore(e, 0, 21, data)
			e.Run(h, 40)
			before := e.Metrics().MsgsSent
			for i := 0; i < searches; i++ {
				h.RequestGet(e, (i*211+13)%n, 21, 80)
			}
			deadline := e.Round() + 90
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
			msgs := float64(e.Metrics().MsgsSent-before) / float64(searches)
			rate := 0.0
			if got > 0 {
				rate = float64(ok) / float64(got)
			}
			t.AddRow(d(perRound), "chord-dht", pct(rate), f2(msgs), f3(h.RingHealth(e)))
		}

		// --- flooding ---
		{
			e := simnet.New(simnet.Config{
				N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
				AdversarySeed: 0xF12, ProtocolSeed: 0xF13,
				Strategy: churn.Uniform, Law: law,
			})
			h := flood.NewHandler(n)
			e.RunRound(h)
			h.RequestStore(e, 0, 21, itemData(21, 48))
			e.Run(h, 40)
			before := e.Metrics().MsgsSent
			for i := 0; i < searches; i++ {
				h.RequestSearch(e, (i*211+13)%n, 21, 40)
			}
			deadline := e.Round() + 50
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
			msgs := float64(e.Metrics().MsgsSent-before) / float64(searches)
			rate := 0.0
			if got > 0 {
				rate = float64(ok) / float64(got)
			}
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
	type variant struct {
		name string
		mod  func(*dynp2p.Config, *tweaks)
	}
	variants := []variant{
		{"defaults", func(*dynp2p.Config, *tweaks) {}},
		{"walks x0.5", func(_ *dynp2p.Config, tw *tweaks) { tw.walksMul = 0.5 }},
		{"walks x2", func(_ *dynp2p.Config, tw *tweaks) { tw.walksMul = 2 }},
		{"committee x0.5", func(_ *dynp2p.Config, tw *tweaks) { tw.committeeMul = 0.5 }},
		{"committee x2", func(_ *dynp2p.Config, tw *tweaks) { tw.committeeMul = 2 }},
		{"period x2", func(_ *dynp2p.Config, tw *tweaks) { tw.periodMul = 2 }},
		{"tree depth -1", func(_ *dynp2p.Config, tw *tweaks) { tw.depthDelta = -1 }},
		{"tree depth +1", func(_ *dynp2p.Config, tw *tweaks) { tw.depthDelta = +1 }},
	}
	for _, v := range variants {
		cfg := dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 0xE13}
		tw := tweaks{walksMul: 1, committeeMul: 1, periodMul: 1}
		v.mod(&cfg, &tw)
		nw := buildTweaked(cfg, tw)
		nw.Run(nw.WarmupRounds())
		data := itemData(31, 48)
		mustStore(nw, 31, data)
		nw.Run(nw.Tunables().Protocol.Period + 4)
		for i := 0; i < searches; i++ {
			nw.Retrieve((i*211+13)%n, 31, data)
		}
		nw.Run(nw.Tunables().Protocol.SearchTTL + 6)
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
		pp.SampleBuffer = 4 * pp.CommitteeSize
		if v := int(float64(pp.Period) * tw.periodMul); v > protocol.SampleWindow+8 {
			pp.Period = v
		}
		if v := pp.TreeDepth + tw.depthDelta; v >= 1 {
			pp.TreeDepth = v
		}
	})
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
