package bench

import (
	"testing"

	"dynp2p"
	"dynp2p/internal/rng"
	"dynp2p/internal/shard"
)

// hotProcs is the core count retrieveHot sizes its shard grid for: at
// every n the grid shard.Pick gives there is the one it gives on one to
// four cores.
const hotProcs = 4

// hotTally counts the retrievals a retrieveHot network has completed and
// the rounds they took.
type hotTally struct{ done, roundsSum int }

// retrieveHot builds the skewed-retrieval workload: an n-node network
// under the paper's churn law serving a Zipf(s=1.1) retrieval stream over
// 16 stored keys, two arrivals per round, with the hot-key cache off or
// on and the items replicated (erasureK 0) or dispersed with IDA at K =
// erasureK. The shard grid is pinned to hotProcs cores' pick, so what its
// gates read is the same on any host. It returns the network's one-round
// function (arrivals, one simulated round, results), the tally that round
// keeps and the network.
func retrieveHot(n int, cached bool, erasureK int) (func(), *hotTally, *dynp2p.Network) {
	cfg := dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 1, ErasureK: erasureK,
		Shards: shard.Pick(n, hotProcs).Count()}
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
	tally := &hotTally{}
	return func() {
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
				tally.done++
				tally.roundsSum += r.Done - r.Start
			}
		}
		if len(busy) > 256 {
			busy = make(map[reqKey]bool)
		}
	}, tally, nw
}

// benchRetrieveHot times one round of retrieveHot's network. Run with
// cached=false it is the baseline for the hot-key cache; with cached=true
// the ns/op and rounds/retrieval deltas are the cache's measured win (and
// the alloc column its steady-state cost).
func benchRetrieveHot(b *testing.B, n int, cached bool) {
	round, tally, _ := retrieveHot(n, cached, 0)
	loop(b, round, noBudget)
	if tally.done > 0 {
		b.ReportMetric(float64(tally.roundsSum)/float64(tally.done), "rounds/retrieval")
		b.ReportMetric(float64(tally.done)/float64(b.N), "retrievals/round")
	}
}
