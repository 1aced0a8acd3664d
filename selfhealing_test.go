package dynp2p

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// selfHealingRun executes a 200+ round storage/search workload at n under
// paper-rate churn (C=1, δ=1.0 — the regime where committees robustly
// outlive their handover period; δ=0.5 puts the committee protocol on a
// knife edge in *both* topologies, see the EXPERIMENTS.md sweep) with the
// given edge mode, issuing a retrieval burst every search period once the
// soup has mixed. Stores are staggered so the keys' committees are drawn
// from different sample windows. Returns (succeeded, completed) retrieval
// counts and the final stats.
func selfHealingRun(t *testing.T, n int, mode EdgeMode, spectralEvery int) (int, int, Stats) {
	t.Helper()
	nw := New(Config{
		N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 41,
		Edges: mode, SpectralEvery: spectralEvery,
	})
	nw.Run(nw.WarmupRounds())
	const keys = 4
	data := make([][]byte, keys)
	for k := 0; k < keys; k++ {
		data[k] = make([]byte, 32)
		for j := range data[k] {
			data[k][j] = byte(17*k + j)
		}
		nw.Store(nw.OldestSlot(), uint64(100+k), data[k])
		nw.Run(3)
	}
	ttl := nw.Tunables().Protocol.SearchTTL
	nw.Run(nw.Tunables().Protocol.Period)
	succ, done := 0, 0
	// Issue retrieval bursts (several issuers per key) until at least 200
	// post-warmup rounds ran.
	for round := 0; round < 200; round += ttl + 2 {
		for k := 0; k < keys; k++ {
			for i := 0; i < 12; i++ {
				nw.Retrieve(((1+round)*(k+3)+i*37)%n, uint64(100+k), data[k])
			}
		}
		nw.Run(ttl + 2)
		for _, res := range nw.Results() {
			done++
			if res.Success {
				succ++
			}
		}
	}
	return succ, done, nw.Stats()
}

// TestSelfHealingAcceptance is the tentpole's acceptance criterion: a
// 200+ round run at n=4096 under paper-rate churn with the self-healing
// overlay must (a) keep the estimated second eigenvalue bounded away
// from 1 — λ ≤ 0.9 in every measured round — and (b) keep steady-state
// search success within 5 points of the Rerandomize oracle on the same
// seed. A second workload-free leg stresses the λ bound at the harsher
// δ=0.5 rate (~4.2% of the network replaced per round). Skipped in
// -short; CI runs it by name under -race.
func TestSelfHealingAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("200+ round n=4096 acceptance run; skipped in -short")
	}
	const n = 4096
	healSucc, healDone, healStats := selfHealingRun(t, n, EdgesSelfHealing, 5)
	ov := healStats.Overlay
	if ov.SpectralRounds < 40 {
		t.Fatalf("too few spectral measurements: %d", ov.SpectralRounds)
	}
	if ov.LambdaMax > 0.9 {
		t.Fatalf("self-healed topology lost expansion: λ=%.3f at round %d",
			ov.LambdaMax, ov.LambdaMaxRound)
	}
	if ov.Splices == 0 || ov.PortsSevered == 0 {
		t.Fatalf("overlay did not repair: %+v", ov)
	}

	oracleSucc, oracleDone, oracleStats := selfHealingRun(t, n, EdgesRerandomize, 0)
	if oracleStats.Overlay.PortsSevered != 0 {
		t.Fatalf("oracle run ran repairs: %+v", oracleStats.Overlay)
	}
	if healDone == 0 || oracleDone == 0 {
		t.Fatalf("no retrievals completed (heal %d, oracle %d)", healDone, oracleDone)
	}
	healRate := float64(healSucc) / float64(healDone)
	oracleRate := float64(oracleSucc) / float64(oracleDone)
	t.Logf("success: self-healing %.3f (%d/%d), oracle %.3f (%d/%d); λ max %.3f",
		healRate, healSucc, healDone, oracleRate, oracleSucc, oracleDone, ov.LambdaMax)
	if diff := oracleRate - healRate; diff > 0.05 {
		t.Fatalf("self-healing search success %.3f more than 5 points below oracle %.3f",
			healRate, oracleRate)
	}

	// λ-stress leg: δ=0.5 doubles the per-round replacement count (~170
	// slots, the whole edge set every ~6 rounds); no workload, repairs
	// and telemetry only.
	stress := New(Config{
		N: n, ChurnRate: 1, ChurnDelta: 0.5, Seed: 41,
		Edges: EdgesSelfHealing, SpectralEvery: 5,
	})
	stress.Run(240)
	sm := stress.Stats().Overlay
	if sm.LambdaMax > 0.9 {
		t.Fatalf("λ-stress leg lost expansion: λ=%.3f at round %d", sm.LambdaMax, sm.LambdaMaxRound)
	}
	if sm.SpectralRounds < 40 || sm.Splices == 0 {
		t.Fatalf("λ-stress leg vacuous: %+v", sm)
	}
	t.Logf("λ-stress (δ=0.5): max %.3f over %d measurements", sm.LambdaMax, sm.SpectralRounds)
}

// TestSelfHealingWorkerIndependence extends the engine's determinism
// contract to the overlay: a faulty, churning self-healing network must
// produce identical stats (including overlay metrics), retrieval
// results, walk samples, and final adjacency for Workers ∈ {1, 3,
// GOMAXPROCS}. The test repeats at the pinned grid floor (16) and ceiling
// (256) in addition to the adaptive default, so a worker-count dependence
// that only one grid geometry shows cannot hide. CI runs it under -race.
func TestSelfHealingWorkerIndependence(t *testing.T) {
	type snapshot struct {
		stats   Stats
		results []Result
		samples [][]walks.Sample
		adj     []int32
		det     string // telemetry DeterministicSnapshot, serialized
	}
	run := func(workers, shards int) snapshot {
		nw := New(Config{
			N: 2048, ChurnRate: 1, ChurnDelta: 1.0, Seed: 5, Workers: workers,
			Shards: shards,
			Edges:  EdgesSelfHealing, SpectralEvery: 7,
			Fault: FaultConfig{DropProb: 0.03, DelayProb: 0.1, MaxDelay: 2},
		})
		nw.Run(nw.WarmupRounds())
		data := make([]byte, 48)
		for i := range data {
			data[i] = byte(3 * i)
		}
		nw.Store(0, 7, data)
		nw.Run(nw.Tunables().Protocol.Period)
		nw.Retrieve(1024, 7, data)
		nw.Retrieve(99, 7, data)
		nw.Run(nw.Tunables().Protocol.SearchTTL + 4)
		var det bytes.Buffer
		if err := telemetry.WriteJSONL(&det, nw.Telemetry().DeterministicSnapshot()); err != nil {
			t.Fatal(err)
		}
		snap := snapshot{
			stats:   nw.Stats(),
			results: nw.Results(),
			adj:     append([]int32(nil), nw.Engine().Graph().Adjacency()...),
			det:     det.String(),
		}
		for s := 0; s < nw.N(); s++ {
			snap.samples = append(snap.samples,
				append([]walks.Sample(nil), nw.Soup().Samples(s)...))
		}
		return snap
	}
	for _, shards := range []int{0, 16, 256} {
		base := run(1, shards)
		if base.stats.Overlay.PortsSevered == 0 {
			t.Fatalf("shards=%d: overlay did not repair anything; test is vacuous", shards)
		}
		workerSet := []int{3}
		if shards == 0 {
			workerSet = []int{3, runtime.GOMAXPROCS(0)}
		}
		for _, w := range workerSet {
			got := run(w, shards)
			if base.stats != got.stats {
				t.Errorf("workers=%d shards=%d: stats differ:\n%+v\n%+v", w, shards, base.stats, got.stats)
			}
			if !reflect.DeepEqual(base.results, got.results) {
				t.Errorf("workers=%d shards=%d: retrieval results differ", w, shards)
			}
			if !reflect.DeepEqual(base.adj, got.adj) {
				t.Errorf("workers=%d shards=%d: final adjacency differs", w, shards)
			}
			if base.det != got.det {
				t.Errorf("workers=%d shards=%d: telemetry DeterministicSnapshot differs", w, shards)
			}
			for s := range base.samples {
				if !reflect.DeepEqual(base.samples[s], got.samples[s]) {
					t.Fatalf("workers=%d shards=%d: soup samples differ at slot %d", w, shards, s)
				}
			}
		}
	}
}
