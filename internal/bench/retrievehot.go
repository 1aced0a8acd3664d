package bench

import (
	"testing"

	"dynp2p"
	"dynp2p/internal/rng"
)

// RetrieveHot is the skewed-retrieval benchmark body: an n-node network
// under the paper's churn law serving a Zipf(s=1.1) retrieval stream
// over 16 stored keys, two arrivals per round. One iteration is one
// simulated round. Run with cached=false it is the baseline for the
// hot-key cache; with cached=true the same workload runs with
// per-node caches on, so the ns/op and rounds/retrieval deltas are the
// cache's measured win (and the alloc column its steady-state cost).
func RetrieveHot(b *testing.B, n int, cached bool) {
	cfg := dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 1}
	if cached {
		cfg.Cache = dynp2p.CacheConfig{Capacity: 4, SeedRate: 1}
	}
	nw := dynp2p.New(cfg)
	nw.Run(nw.WarmupRounds())
	const keys = 16
	items := make([][]byte, keys)
	for k := 0; k < keys; k++ {
		items[k] = make([]byte, 128)
		rng.New(uint64(100 + k)).Fill(items[k])
		nw.Store((k*997)%n, uint64(100+k), items[k])
	}
	nw.Run(nw.Tunables().Protocol.Period)

	// One active search per (node, key): issue arrivals like the
	// scenario runner does, skipping busy pairs. Results clear their
	// marks; searchers churned out mid-search never report, so the map
	// is reset when stale marks pile up.
	type reqKey struct {
		id  dynp2p.NodeID
		key uint64
	}
	zipf := rng.NewZipf(keys, 1.1)
	wr := rng.New(7)
	busy := make(map[reqKey]bool)
	done, roundsSum := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2; j++ {
			k := zipf.Next(wr)
			slot := wr.Intn(n)
			rk := reqKey{id: nw.IDAt(slot), key: uint64(100 + k)}
			if busy[rk] {
				continue
			}
			busy[rk] = true
			nw.Retrieve(slot, rk.key, items[k])
		}
		nw.Run(1)
		for _, r := range nw.Results() {
			delete(busy, reqKey{id: r.Searcher, key: r.Key})
			if r.Success {
				done++
				roundsSum += r.Done - r.Start
			}
		}
		if len(busy) > 256 {
			busy = make(map[reqKey]bool)
		}
	}
	b.StopTimer()
	if done > 0 {
		b.ReportMetric(float64(roundsSum)/float64(done), "rounds/retrieval")
		b.ReportMetric(float64(done)/float64(b.N), "retrievals/round")
	}
}
