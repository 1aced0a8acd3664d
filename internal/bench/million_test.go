package bench

import (
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/overlay"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// TestMillionNodeSmoke constructs the paper-scale n=2^20 soup +
// self-healing stack under paper churn and runs three rounds: a fast
// structural check that construction (expander build, adaptive shard
// grid, delta-ring allocation), the first churn/repair rounds and a
// cohort delivery work at the size the 200-round EXPERIMENTS.md run
// certifies. Walks are two steps long so that three rounds deliver two
// cohorts; at the default length the soup would deliver nothing in so
// short a run. It runs under -short by design — it is the scale leg of
// the CI -short matrix — and costs a few seconds, most of them
// construction.
func TestMillionNodeSmoke(t *testing.T) {
	const n = 1 << 20
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesSelfHealing,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.PaperLaw(1, 0.5),
	})
	p := walks.DefaultParams(n)
	p.WalkLength = 2
	soup := walks.NewSoup(e, p, 0)
	e.AddHook(soup)
	ov := overlay.New(e, soup, overlay.Config{})
	e.AddHook(ov)
	e.Run(simnet.NopHandler{}, 3)
	if m := soup.Metrics(); m.Completed == 0 || m.Generated != m.Completed+m.Died {
		t.Fatalf("soup delivered no cohort whole in 3 rounds: %+v", m)
	}
	sampled := false
	for slot := 0; slot < n && !sampled; slot++ {
		sampled = len(soup.Samples(slot)) > 0
	}
	if !sampled {
		t.Fatal("no slot holds a sample after a delivery round")
	}
	if m := ov.Metrics(); m.PortsSevered == 0 || m.Splices+m.DirectPairs == 0 {
		t.Fatalf("overlay idle at 2^20 under paper churn: %+v", m)
	}
	if err := e.Graph().CheckRegular(); err != nil {
		t.Fatal(err)
	}
}
