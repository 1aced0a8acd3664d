package main

import (
	"fmt"
	"math"

	"dynp2p"
)

// refSeconds is the --seconds value the phase lengths below are written
// for: a run makes two passes over its inputs, and at refSeconds the timed
// region of each pass takes about refSeconds/2 on the reference box. Other
// --seconds values scale the phase rounds linearly, so the work is a pure
// function of (workload, seed, seconds) and the simulated statistics of a
// run never depend on how fast the host happens to be.
const refSeconds = 20

// Pinned in every config: with the shard grid fixed the results are the
// same on any machine, and allocation counts are exact.
const (
	pinnedWorkers = 2
	pinnedShards  = 64
)

// phase is one stretch of open-loop load: Poisson arrivals per simulated
// round at the two rates.
type phase struct {
	name         string
	rounds       int // at refSeconds
	storeRate    float64
	retrieveRate float64
}

// workload is one fixed input set. Names are permanent: later PRs are
// compared on them.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	n int
	// churn is the paper-law C: C·n/ln^1.5 n replacements per round.
	churn    float64
	edges    dynp2p.EdgeMode
	routing  dynp2p.RoutingConfig
	cache    dynp2p.CacheConfig
	erasureK int

	keys    int
	itemLen int
	zipfS   float64
	phases  []phase
}

var workloads = []workload{
	{
		name: "steady-oracle",
		why:  "paper base model at n=16384 under light load: walk soup and background handlers dominate; overlay, route and cache are idle (bypass workload for those three)",
		n:    16384, churn: 0.5, keys: 16, itemLen: 128, zipfS: 0.9,
		phases: []phase{
			{name: "store", rounds: 25, storeRate: 1},
			{name: "serve", rounds: 75, retrieveRate: 4},
		},
	},
	{
		name: "flash-cached",
		why:  "Zipf-3 flash crowd at n=4096 served ~95% from the hot-key cache: cache arena, replica seeding and per-search allocation dominate; committee search is bypassed",
		n:    4096, churn: 0.5,
		cache: dynp2p.CacheConfig{Capacity: 8, SeedRate: 1},
		keys:  8, itemLen: 128, zipfS: 3.0,
		phases: []phase{
			{name: "store", rounds: 40, storeRate: 0.5},
			{name: "crowd", rounds: 150, retrieveRate: 20},
		},
	},
	{
		name: "routed-healing",
		why:  "self-healing edges + overlay routing at n=1024: the serial routed-walker phase is the run; the only workload where route and overlay repair are on the blocking path",
		n:    1024, churn: 0.25,
		edges:   dynp2p.EdgesSelfHealing,
		routing: dynp2p.RoutingConfig{Mode: dynp2p.RoutingOverlay},
		keys:    16, itemLen: 128, zipfS: 0.9,
		phases: []phase{
			{name: "store", rounds: 20, storeRate: 1},
			{name: "serve", rounds: 60, retrieveRate: 3},
		},
	},
	{
		name: "store-maintain",
		why:  "writes beside reads at n=8192 with K=4 erasure coding and 4 KiB items: committee handover, ida/gf256 and payload-carrying messages dominate; guards durability and per-item state",
		n:    8192, churn: 0.5,
		erasureK: 4,
		keys:     512, itemLen: 4096, zipfS: 0.01,
		phases: []phase{
			{name: "fill", rounds: 100, storeRate: 3, retrieveRate: 1},
			{name: "serve", rounds: 50, retrieveRate: 4},
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sized returns the workload with its phase rounds scaled from refSeconds
// to seconds (at least one round per phase).
func (w workload) sized(seconds float64) workload {
	ph := make([]phase, len(w.phases))
	for i, p := range w.phases {
		p.rounds = max(1, int(math.Round(float64(p.rounds)*seconds/refSeconds)))
		ph[i] = p
	}
	w.phases = ph
	return w
}

// config is the facade configuration of a run. The network seed and the
// workload stream both derive from the run seed.
func (w workload) config(seed uint64, workers int) dynp2p.Config {
	return dynp2p.Config{
		N: w.n, Seed: seed,
		ChurnRate: w.churn,
		Workers:   workers, Shards: pinnedShards,
		Edges: w.edges, Routing: w.routing, Cache: w.cache,
		ErasureK: w.erasureK,
	}
}

// routed reports whether protocol messages walk the overlay.
func (w workload) routed() bool { return w.routing.Mode == dynp2p.RoutingOverlay }

// keyFor maps a key index to its item key (offset so keys are visibly
// distinct from slot numbers in traces).
func keyFor(i int) uint64 { return uint64(100 + i) }

// itemData is the deterministic payload stored under key.
func (w workload) itemData(key uint64) []byte {
	buf := make([]byte, w.itemLen)
	for j := range buf {
		buf[j] = byte(key + uint64(j)*131)
	}
	return buf
}
