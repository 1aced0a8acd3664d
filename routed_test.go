package dynp2p

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dynp2p/internal/protocol"
	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
)

// TestRoutedStoreRetrieve is the overlay-routing smoke test: the full
// store/retrieve pipeline succeeds when every protocol message walks the
// expander edge-by-edge instead of teleporting, and the engine's delivery
// tally matches the router's — the zero-teleport invariant.
func TestRoutedStoreRetrieve(t *testing.T) {
	nw := New(Config{
		N: 256, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 7,
		Routing: RoutingConfig{Mode: RoutingOverlay},
	})
	nw.Run(nw.WarmupRounds())
	data := make([]byte, 100)
	rng.New(1).Fill(data)
	nw.Store(0, 42, data)
	nw.Run(nw.Tunables().Protocol.Period)
	if nw.CopyCount(42) == 0 {
		t.Fatal("item not stored")
	}
	nw.Retrieve(128, 42, data)
	nw.Run(nw.Tunables().Protocol.SearchTTL() + 5)
	res := nw.Results()
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("routed retrieval failed: %+v", res)
	}
	st := nw.Stats()
	if st.Route.Sent == 0 || st.Route.Forwards == 0 {
		t.Fatalf("no routed traffic: %+v", st.Route)
	}
	if st.Engine.MsgsDelivered != st.Route.Delivered {
		t.Fatalf("teleported deliveries: engine delivered %d, router delivered %d",
			st.Engine.MsgsDelivered, st.Route.Delivered)
	}
	if st.Route.Forwards < st.Route.Delivered {
		t.Fatalf("fewer forwards (%d) than deliveries (%d): walks are not walking",
			st.Route.Forwards, st.Route.Delivered)
	}
}

// foundTally is a FaultModel that counts every KindSFound sent by
// (sender, searcher, key, round, roster) and delivers everything on time.
type foundTally struct {
	mu sync.Mutex
	n  map[foundTold]int
}

type foundTold struct {
	from, to simnet.NodeID
	key      uint64
	round    int
	roster   string
}

func (f *foundTally) Fate(round int, m *simnet.Msg, _ uint64) (bool, int) {
	if m.Kind == protocol.KindSFound {
		f.mu.Lock()
		f.n[foundTold{m.From, m.To, m.Item, round, fmt.Sprint(m.IDs())}]++
		f.mu.Unlock()
	}
	return false, 0
}
func (f *foundTally) String() string { return "KindSFound tally" }

// TestRoutedFoundOncePerRound: under overlay routing the keyed walk ends a
// search landmark's inquiries at the first holder it scans, so one storage
// landmark receives many of them a round. It tells each searcher the roster
// once a round and leaves the rest unanswered, and every retrieval still
// succeeds. Retrievals run two at a time, so a search landmark holding
// tasks of both searches asks for both in one inquiry, and the holder's
// stamp must cover the pair: one that kept only the last searcher told
// would tell the first of every repeated pair again. A handover's invite
// landing between two inquiries tells the searcher the new roster in the
// same round, so the tally tells rosters apart.
func TestRoutedFoundOncePerRound(t *testing.T) {
	founds := &foundTally{n: map[foundTold]int{}}
	nw := New(Config{
		N: 256, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 7,
		Routing: RoutingConfig{Mode: RoutingOverlay},
		Fault:   founds,
	})
	nw.Run(nw.WarmupRounds())
	data := make([]byte, 100)
	rng.New(1).Fill(data)
	nw.Store(0, 42, data)
	nw.Run(nw.Tunables().Protocol.Period)
	const retrievals = 4
	for i := 0; i < retrievals; i += 2 {
		nw.Retrieve(40+50*i, 42, data)
		nw.Retrieve(90+50*i, 42, data)
		nw.Run(nw.Tunables().Protocol.SearchTTL() + 5)
	}
	res := nw.Results()
	if len(res) != retrievals || slices.ContainsFunc(res, func(r Result) bool { return !r.Success }) {
		t.Fatalf("routed retrievals did not all succeed: %+v", res)
	}
	for k, n := range founds.n {
		if n > 1 {
			t.Errorf("landmark %d told searcher %d roster %s for key %d %d times in round %d", k.from, k.to, k.roster, k.key, n, k.round)
		}
	}
	if p := nw.Stats().Proto; p.Founds == 0 || p.FoundRepeats == 0 || p.InquiryPairs == 0 {
		t.Fatalf("%d founds, %d repeats left unanswered, %d paired inquiries: the test shows nothing", p.Founds, p.FoundRepeats, p.InquiryPairs)
	}
}

// TestRoutedEdgeConformance is the edge-conformance oracle: over 200+
// routed rounds under paper churn with the self-healing overlay repairing
// the topology, every forward the router takes must traverse an edge of
// that round's live adjacency. Nothing mutates the graph after the routed
// phase within a round, so validating the hops recorded during Run(1)
// against the adjacency visible after it returns is exact. Message
// conservation and the zero-teleport invariant are checked at the end.
// The recorder does not switch kernels: it only keeps the walk on one
// lane, so the hops audited here are the production hop loop's.
func TestRoutedEdgeConformance(t *testing.T) {
	const rounds = 220
	nw := New(Config{
		N: 512, ChurnRate: 1, ChurnDelta: 1.0, Seed: 13,
		Edges:   EdgesSelfHealing,
		Routing: RoutingConfig{Mode: RoutingOverlay},
	})
	e := nw.Engine()
	type hop struct{ from, to int }
	var hops []hop
	e.SetHopRecorder(func(r, from, to int) { hops = append(hops, hop{from, to}) })
	nw.Run(nw.WarmupRounds())

	data := make([]byte, 64)
	rng.New(2).Fill(data)
	checked, bad := 0, 0
	for r := 0; r < rounds; r++ {
		if r%40 == 0 {
			nw.Store(nw.OldestSlot(), uint64(100+r), data)
		}
		if r%17 == 5 {
			nw.Retrieve((r*37)%nw.N(), uint64(100+40*(r/40)), data)
		}
		hops = hops[:0]
		nw.Run(1)
		g := e.Graph()
		for _, h := range hops {
			ok := false
			for _, nb := range g.Neighbors(h.from) {
				if int(nb) == h.to {
					ok = true
					break
				}
			}
			if !ok {
				bad++
				if bad <= 5 {
					t.Errorf("round %d: hop %d->%d is not an edge of the live adjacency", nw.Round(), h.from, h.to)
				}
			}
			checked++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d hops off-graph", bad, checked)
	}
	if checked == 0 {
		t.Fatal("no hops recorded: routed traffic never flowed")
	}

	st := nw.Stats()
	m := st.Route
	if st.Engine.MsgsDelivered != m.Delivered {
		t.Fatalf("teleported deliveries: engine delivered %d, router delivered %d",
			st.Engine.MsgsDelivered, m.Delivered)
	}
	inFlight := int64(e.RoutedInFlight())
	drops := m.DroppedBudget + m.DroppedDead
	if m.Sent != m.Delivered+drops+inFlight {
		t.Fatalf("message conservation violated: sent %d != delivered %d + drops %d + in-flight %d",
			m.Sent, m.Delivered, drops, inFlight)
	}
}

// TestRoutedWorkerCountIndependence pins the routed phase's determinism:
// on a churning self-healing network in overlay mode with tracing on, the
// combined stats (including every route counter), the retrieval results,
// and the full deterministic telemetry snapshot must be bit-identical at
// every worker count. Links are unmetered, so walkers are walked on
// Workers lanes at once and only the merge is ordered.
func TestRoutedWorkerCountIndependence(t *testing.T) {
	type snapshot struct {
		stats   Stats
		results []Result
		metrics any
	}
	run := func(workers int) snapshot {
		nw := New(Config{
			N: 1024, ChurnRate: 1, ChurnDelta: 1.0, Seed: 5, Workers: workers,
			Edges:            EdgesSelfHealing,
			Routing:          RoutingConfig{Mode: RoutingOverlay},
			Cache:            CacheConfig{Capacity: 2, SeedRate: 0.7},
			TraceSampleEvery: 1,
		})
		nw.Run(nw.WarmupRounds())
		data := make([]byte, 48)
		rng.New(4).Fill(data)
		nw.Store(0, 7, data)
		nw.Run(nw.Tunables().Protocol.Period)
		nw.Retrieve(512, 7, data)
		nw.Retrieve(99, 7, data)
		nw.Run(nw.Tunables().Protocol.SearchTTL() + 4)
		return snapshot{
			stats:   nw.Stats(),
			results: nw.Results(),
			metrics: nw.Telemetry().DeterministicSnapshot(),
		}
	}
	t.Run("unlimited", func(t *testing.T) {
		base := run(1)
		if base.stats.Route.Sent == 0 {
			t.Fatal("no routed traffic")
		}
		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
			got := run(w)
			if base.stats != got.stats {
				t.Errorf("workers=%d: stats differ:\n%+v\n%+v", w, base.stats, got.stats)
			}
			if !reflect.DeepEqual(base.results, got.results) {
				t.Errorf("workers=%d: retrieval results differ:\n%+v\n%+v", w, base.results, got.results)
			}
			if !reflect.DeepEqual(base.metrics, got.metrics) {
				t.Errorf("workers=%d: deterministic telemetry snapshots differ", w)
			}
		}
	})
}
