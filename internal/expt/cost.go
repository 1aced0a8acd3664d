package expt

import (
	"dynp2p"
	"dynp2p/internal/churn"
	"dynp2p/internal/expt/baseline"
	"dynp2p/internal/stats"
)

// E09MessageComplexity reproduces the scalability claim (§1, §4): the
// paper's protocol needs only polylog(n) bits per node per round, while
// the naïve flooding solution costs Θ(n) messages per operation.
func E09MessageComplexity(scale Scale) *Table {
	t := &Table{
		ID:    "E09",
		Title: "per-node traffic: protocol vs flooding (§1 scalability claim)",
		Claim: "protocol traffic per node per round is polylog(n); flooding costs " +
			"Theta(n) messages per operation",
		Header: []string{"n", "mean bits/node/rnd", "max bits/node/rnd", "flood msgs/store", "flood/n"},
	}
	ns := []int{256, 512, 1024}
	if scale == Full {
		ns = append(ns, 2048)
	}
	var xs, meanBits []float64
	for _, n := range ns {
		// Protocol workload: one stored item + periodic searches.
		nw := dynp2p.New(dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 0xE09})
		nw.Run(nw.WarmupRounds())
		data := itemData(3, 64)
		mustStore(nw, 3, data)
		nw.Run(nw.Tunables().Protocol.Period)
		for i := 0; i < 4; i++ {
			nw.Retrieve((i*257+5)%n, 3, data)
		}
		nw.Run(2 * nw.Tunables().Protocol.Period)
		em := nw.Stats().Engine
		rounds := em.Rounds
		mean := float64(em.BitsSent) / float64(n) / float64(rounds)

		// Flooding workload: one store on the same engine scale.
		fe := soupEngine(n, churn.PaperLaw(1, 0.5), 0xF109)
		fh := baseline.NewFlood(n)
		fe.RunRound(fh)
		base := fe.Metrics().MsgsSent
		fh.RequestStore(fe, 0, 3, data)
		fe.Run(fh, 30)
		floodMsgs := fe.Metrics().MsgsSent - base

		t.AddRow(d(n), f2(mean), d64(em.MaxNodeBitsRound),
			d64(floodMsgs), f2(float64(floodMsgs)/float64(n)))
		xs = append(xs, float64(n))
		meanBits = append(meanBits, mean)
	}
	p, r2 := stats.PowerLawExponent(xs, meanBits)
	t.AddNote("fitted protocol bits/node/round ~ n^%.2f (r²=%.2f); polylog predicts an exponent near 0.", p, r2)
	t.AddNote("flood msgs/store grows linearly in n (flood/n roughly constant) — the scalability wall.")
	return t
}

// E10ErasureCoding reproduces §4.4: IDA cuts total stored bytes from
// Θ(log n)·|I| to (L/K)·|I| while the committee keeps the item alive by
// reconstructing and re-dispersing at each handover.
func E10ErasureCoding(scale Scale) *Table {
	t := &Table{
		ID:    "E10",
		Title: "replication vs IDA erasure coding (§4.4)",
		Claim: "IDA stores L/K * |I| total bytes instead of h*log(n) * |I|; " +
			"items survive handovers via reconstruct-and-redisperse",
		Header: []string{"mode", "stored-bytes", "vs item", "retrieval", "recoded", "lost"},
	}
	n := 512
	periods := 6
	if scale == Full {
		n = 1024
		periods = 12
	}
	itemLen := 512
	data := itemData(11, itemLen)
	type modeCfg struct {
		name string
		k    int
	}
	committee := dynp2p.New(dynp2p.Config{N: n, Seed: 1}).Tunables().Protocol.CommitteeSize
	// K must leave headroom for piece loss between handovers: the paper's
	// K = (h-2)log n works in the asymptotic regime where only 2·log n of
	// the h·log n members churn per epoch; at laptop n roughly half the
	// members can churn between epochs, so K <= L/3 is the sustainable
	// analogue (the L/K overhead stays a constant, as §4.4 requires).
	modes := []modeCfg{
		{"replication", 0},
		{"IDA K=L/4", committee / 4},
		{"IDA K=L/3", committee / 3},
	}
	for _, mc := range modes {
		// C = 0.5 keeps committees healthy (E05): §4.4's claim is the
		// constant-factor storage overhead, which needs the committee
		// machinery underneath it to be in its working regime.
		nw := dynp2p.New(dynp2p.Config{
			N: n, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 0xE10, ErasureK: mc.k,
		})
		nw.Run(nw.WarmupRounds())
		mustStore(nw, 11, data)
		// Measure stored bytes via copy count and per-copy size.
		perCopy := itemLen
		if mc.k > 0 {
			perCopy = (itemLen + mc.k - 1) / mc.k
		}
		storedBytes := nw.CopyCount(11) * perCopy
		nw.Run(periods * nw.Tunables().Protocol.Period)
		// Several retrieval attempts from scattered nodes (a single
		// searcher can itself be churned mid-search).
		okStr := "fail"
		for attempt := 0; attempt < 3 && okStr == "fail"; attempt++ {
			nw.Retrieve((n/2+attempt*67)%n, 11, data)
			nw.Run(nw.Tunables().Protocol.SearchTTL() + 5)
			for _, r := range nw.Results() {
				if r.Key == 11 && r.Success {
					okStr = "ok"
				}
			}
		}
		st := nw.Stats().Proto
		t.AddRow(mc.name, d(storedBytes), f2(float64(storedBytes)/float64(itemLen)),
			okStr, d64(st.IDARecoded), d64(st.IDALost))
	}
	t.AddNote("'vs item' is the total storage blow-up: h*ln n for replication, ~L/K for IDA.")
	return t
}
