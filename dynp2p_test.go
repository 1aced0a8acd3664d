package dynp2p

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dynp2p/internal/protocol"
	"dynp2p/internal/rng"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

func TestFacadeStoreRetrieve(t *testing.T) {
	nw := New(Config{N: 256, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 7})
	nw.Run(nw.WarmupRounds())
	data := make([]byte, 100)
	rng.New(1).Fill(data)
	nw.Store(0, 42, data)
	nw.Run(nw.Tunables().Protocol.Period)
	if nw.CopyCount(42) == 0 {
		t.Fatal("item not stored")
	}
	if nw.LandmarkCount(42) == 0 {
		t.Fatal("no landmarks")
	}
	nw.Retrieve(128, 42, data)
	nw.Run(nw.Tunables().Protocol.SearchTTL() + 5)
	res := nw.Results()
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("retrieval failed: %+v", res)
	}
}

// TestTunablesResolveDerivedParams pins the τ-derived lifetimes and the
// cache defaults NewHandler resolves: Tunables reports the values the run
// uses, not the zeros that selected them.
func TestTunablesResolveDerivedParams(t *testing.T) {
	p := New(Config{N: 256, Seed: 1}).Tunables().Protocol
	if p.LandmarkTTL() != 2*p.Tau || p.SearchTTL() != 6*p.Tau || p.SampleBuffer() != 4*p.CommitteeSize {
		t.Fatalf("derived params: landmark %d, search %d, buffer %d from tau %d, committee %d",
			p.LandmarkTTL(), p.SearchTTL(), p.SampleBuffer(), p.Tau, p.CommitteeSize)
	}
	p = New(Config{N: 256, Seed: 1, Cache: CacheConfig{Capacity: 2}}).Tunables().Protocol
	if p.CacheTTL != 4*p.Tau || p.CacheSeedRate != 0.5 {
		t.Fatalf("default cache ttl %d (tau %d), seed rate %g; want 4·tau and 0.5", p.CacheTTL, p.Tau, p.CacheSeedRate)
	}
	p = New(Config{N: 256, Seed: 1, Cache: CacheConfig{Capacity: 2, TTL: 7, SeedRate: 0.7}}).Tunables().Protocol
	if p.CacheTTL != 7 || p.CacheSeedRate != 0.7 {
		t.Fatalf("explicit cache ttl %d, seed rate %g; want 7 and 0.7", p.CacheTTL, p.CacheSeedRate)
	}
	base := New(Config{N: 256, Seed: 1}).Tunables().Protocol
	p = NewCustom(Config{N: 256, Seed: 1}, func(_ *walks.Params, pp *protocol.Params) {
		pp.CommitteeSize *= 2
	}).Tunables().Protocol
	if p.SampleBuffer() != 2*base.SampleBuffer() {
		t.Fatalf("doubled committee: sample buffer %d, want %d", p.SampleBuffer(), 2*base.SampleBuffer())
	}
}

func TestFacadeErasureMode(t *testing.T) {
	nw := New(Config{N: 256, Seed: 9, ErasureK: 6})
	nw.Run(nw.WarmupRounds())
	data := bytes.Repeat([]byte("abc"), 100)
	nw.Store(3, 5, data)
	nw.Run(nw.Tunables().Protocol.Period + 10)
	nw.Retrieve(99, 5, data)
	nw.Run(nw.Tunables().Protocol.SearchTTL() + 5)
	res := nw.Results()
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("erasure retrieval failed: %+v", res)
	}
	if res[0].Bytes != len(data) {
		t.Fatalf("got %d bytes, want %d", res[0].Bytes, len(data))
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() (Stats, int) {
		nw := New(Config{N: 128, ChurnRate: 1, Seed: 3, Workers: 3})
		nw.Run(30)
		return nw.Stats(), nw.Round()
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Fatalf("same config produced different stats:\n%+v\n%+v", s1, s2)
	}
}

// TestWorkerCountIndependence is the facade-level regression net for the
// engine's sort-free canonical ordering: on a faulty, churning 2048-node
// network running the full protocol stack, the engine metrics, every
// retrieval result, and the walk soup's per-slot sample sets must be
// bit-identical for Workers ∈ {1, 3, GOMAXPROCS}. The caching leg
// additionally exercises hot-key replica placement, cascade seeding,
// and LRU eviction — all of whose counters ride in Stats — under the
// same worker sweep.
func TestWorkerCountIndependence(t *testing.T) {
	type snapshot struct {
		stats   Stats
		results []Result
		samples [][]walks.Sample // per slot, last round's completed walks
	}
	run := func(workers int, cache CacheConfig) snapshot {
		nw := New(Config{
			N: 2048, ChurnRate: 1, ChurnDelta: 1.0, Seed: 5, Workers: workers,
			Fault: FaultConfig{DropProb: 0.03, DelayProb: 0.1, MaxDelay: 2},
			Cache: cache,
		})
		nw.Run(nw.WarmupRounds())
		data := make([]byte, 48)
		rng.New(4).Fill(data)
		nw.Store(0, 7, data)
		nw.Run(nw.Tunables().Protocol.Period)
		// Several retrievals at once, so that some finish in the same round
		// on different handler shards and Results() has an order to keep.
		for _, slot := range []int{1024, 99, 300, 700, 1500, 1900} {
			nw.Retrieve(slot, 7, data)
		}
		nw.Run(nw.Tunables().Protocol.SearchTTL() + 4)
		// One more retrieval after those completed: with caching
		// on it exercises serve/admit paths against a warm population.
		nw.Retrieve(555, 7, data)
		nw.Run(nw.Tunables().Protocol.SearchTTL() + 4)
		snap := snapshot{stats: nw.Stats(), results: nw.Results()}
		for s := 0; s < nw.N(); s++ {
			snap.samples = append(snap.samples,
				append([]walks.Sample(nil), nw.Soup().Samples(s)...))
		}
		return snap
	}
	for _, leg := range []struct {
		name  string
		cache CacheConfig
	}{
		{"cache-off", CacheConfig{}},
		{"cache-on", CacheConfig{Capacity: 2, SeedRate: 0.7}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			base := run(1, leg.cache)
			if leg.cache.Capacity > 0 && base.stats.Proto.CacheInserts == 0 {
				t.Error("caching leg produced no cache activity")
			}
			sameRound := false
			for i := 1; i < len(base.results); i++ {
				// Canonical order is by Done first, so ties are adjacent.
				sameRound = sameRound || base.results[i].Done == base.results[i-1].Done
			}
			if !sameRound {
				t.Error("no two retrievals finished in one round: result order is not exercised")
			}
			for _, w := range []int{3, runtime.GOMAXPROCS(0)} {
				got := run(w, leg.cache)
				if base.stats != got.stats {
					t.Errorf("workers=%d: stats differ:\n%+v\n%+v", w, base.stats, got.stats)
				}
				if !reflect.DeepEqual(base.results, got.results) {
					t.Errorf("workers=%d: retrieval results differ:\n%+v\n%+v", w, base.results, got.results)
				}
				for s := range base.samples {
					if !reflect.DeepEqual(base.samples[s], got.samples[s]) {
						t.Fatalf("workers=%d: soup samples differ at slot %d", w, s)
					}
				}
			}
		})
	}
}

// TestShardCountIndependence pins that the slot-shard grid is a throughput
// knob like Workers: Stats, retrieval results, every slot's samples in
// order, the final adjacency, the op-trace stream and the deterministic
// metric snapshot (less the memory gauges, which measure the grid's own
// buffers) are identical at 16, 64 and 256 shards. Every leg runs lossy,
// delaying links, whose late messages land beside other shards' inboxes.
func TestShardCountIndependence(t *testing.T) {
	type snapshot struct {
		stats   Stats
		results []Result
		samples [][]walks.Sample
		adj     []int32
		ops     string
		det     string
	}
	run := func(cfg Config, shards int) snapshot {
		cfg.Shards, cfg.Workers, cfg.TraceSampleEvery = shards, 2, 1
		cfg.N, cfg.ChurnRate, cfg.Seed = 512, 0.5, 13
		cfg.Fault = FaultConfig{DropProb: 0.03, DelayProb: 0.2, MaxDelay: 2}
		nw := New(cfg)
		var ops bytes.Buffer
		nw.Tracer().StreamTo(&ops)
		nw.Run(nw.WarmupRounds())
		data := bytes.Repeat([]byte("shard"), 20)
		nw.Store(0, 7, data)
		nw.Run(nw.Tunables().Protocol.Period)
		for _, slot := range []int{100, 200, 300, 400} {
			nw.Retrieve(slot, 7, data)
		}
		nw.Run(nw.Tunables().Protocol.SearchTTL() + 4)
		if err := nw.Tracer().Flush(); err != nil {
			t.Fatal(err)
		}
		var det bytes.Buffer
		snap := nw.Telemetry().DeterministicSnapshot()
		snap = slices.DeleteFunc(snap, func(mv telemetry.MetricValue) bool { return strings.Contains(mv.Name, "_mem_") })
		if err := telemetry.WriteJSONL(&det, snap); err != nil {
			t.Fatal(err)
		}
		out := snapshot{
			stats: nw.Stats(), results: nw.Results(),
			adj: slices.Clone(nw.Engine().Graph().Adjacency()),
			ops: ops.String(), det: det.String(),
		}
		for s := 0; s < nw.N(); s++ {
			out.samples = append(out.samples, slices.Clone(nw.Soup().Samples(s)))
		}
		return out
	}
	for _, leg := range []struct {
		name string
		cfg  Config
	}{
		{"faulty-oracle", Config{}},
		{"ida-cache", Config{ErasureK: 4, Cache: CacheConfig{Capacity: 2, SeedRate: 0.7}}},
		{"self-healing-overlay", Config{Edges: EdgesSelfHealing, Routing: RoutingConfig{Mode: RoutingOverlay}}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			base := run(leg.cfg, 16)
			if len(base.results) == 0 || base.stats.Engine.MsgsDelayed == 0 {
				t.Fatalf("%d results, %d delayed messages: the test shows nothing", len(base.results), base.stats.Engine.MsgsDelayed)
			}
			for _, shards := range []int{64, 256} {
				got := run(leg.cfg, shards)
				if base.stats != got.stats {
					t.Errorf("shards=%d: stats differ:\n%+v\n%+v", shards, base.stats, got.stats)
				}
				if !reflect.DeepEqual(base.results, got.results) {
					t.Errorf("shards=%d: retrieval results differ", shards)
				}
				if !slices.Equal(base.adj, got.adj) {
					t.Errorf("shards=%d: final adjacency differs", shards)
				}
				if base.ops != got.ops {
					t.Errorf("shards=%d: op-trace stream differs", shards)
				}
				if base.det != got.det {
					t.Errorf("shards=%d: deterministic metric snapshot differs", shards)
				}
				if !reflect.DeepEqual(base.samples, got.samples) {
					t.Errorf("shards=%d: soup samples differ", shards)
				}
			}
		})
	}
}

func TestFacadeDefaults(t *testing.T) {
	nw := New(Config{N: 64, Seed: 1})
	tun := nw.Tunables()
	if tun.Protocol.CommitteeSize < 4 {
		t.Fatal("committee size default too small")
	}
	if tun.Walks.WalkLength < 4 {
		t.Fatal("walk length default too small")
	}
	if nw.N() != 64 {
		t.Fatal("N accessor wrong")
	}
	if !nw.IsLive(nw.IDAt(0)) {
		t.Fatal("initial occupant should be live")
	}
}

func TestFacadeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny N did not panic")
		}
	}()
	New(Config{N: 2})
}

func TestFacadeChurnStrategies(t *testing.T) {
	for _, s := range []Strategy{Uniform, OldestFirst, YoungestFirst, SweepBurst} {
		nw := New(Config{N: 64, ChurnRate: 1, Strategy: s, Seed: 11})
		nw.Run(20)
		if nw.Stats().Engine.Replacements == 0 {
			t.Fatalf("strategy %v produced no churn", s)
		}
	}
}
