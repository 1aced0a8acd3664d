package scenario

import (
	"fmt"
	"sort"

	"dynp2p"
	"dynp2p/internal/churn"
	"dynp2p/internal/walks"
)

// Builder constructs a named scenario spec for a network size and seed.
// Phase durations scale with the derived walk length T = Θ(log n), the
// natural time unit of the protocol (Period = 2T, SearchTTL = 6T).
type Builder func(n int, seed uint64) Spec

type builtin struct {
	name  string
	desc  string
	build Builder
}

var builtins = []builtin{
	{
		name: "steady",
		desc: "steady-state: paper-law churn, moderate mixed workload",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			return Spec{
				Name: "steady", N: n, Seed: seed,
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{StoreRate: 0.5, RetrieveRate: 0.2}},
					{Name: "serve", Rounds: 8 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 1}},
				},
			}
		},
	},
	{
		name: "flash-crowd",
		desc: "retrieval rate spikes 10x on Zipf-hot keys, then cools down",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			return Spec{
				Name: "flash-crowd", N: n, Seed: seed, ZipfS: 1.1,
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{StoreRate: 0.5}},
					{Name: "quiet", Rounds: 2 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 0.3}},
					{Name: "crowd", Rounds: 4 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 3}},
					{Name: "cooldown", Rounds: 2 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 0.3}},
				},
			}
		},
	},
	{
		name: "flash-crowd-cached",
		desc: "flash-crowd with hot-key caching: walk-seeded replicas absorb the spike",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			// Same timeline and churn as flash-crowd, but a steeper Zipf
			// (the crowd hammers a handful of keys) and full seeding.
			// Capacity matches the key universe so the measured win is
			// the caching mechanism itself; the EXPERIMENTS.md sweep
			// (-cachecap) charts what capacity contention costs.
			return Spec{
				Name: "flash-crowd-cached", N: n, Seed: seed, ZipfS: 3.0,
				Keys:  8,
				Cache: dynp2p.CacheConfig{Capacity: 8, SeedRate: 1},
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{StoreRate: 0.5}},
					{Name: "quiet", Rounds: 2 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 0.3}},
					{Name: "crowd", Rounds: 6 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 3}},
					{Name: "cooldown", Rounds: 2 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 0.3}},
				},
			}
		},
	},
	{
		name: "churn-burst",
		desc: "calm network hit by periodic replacement bursts, then recovery",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			return Spec{
				Name: "churn-burst", N: n, Seed: seed,
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{StoreRate: 0.5, RetrieveRate: 0.2}},
					{Name: "calm", Rounds: 2 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 1}},
					{Name: "burst", Rounds: 4 * T,
						Churn: Churn{BurstPeriod: T, BurstWidth: max(1, T/4), BurstCount: max(2, n/16)},
						Load:  Workload{RetrieveRate: 1}},
					{Name: "recover", Rounds: 3 * T,
						Load: Workload{RetrieveRate: 1}},
				},
			}
		},
	},
	{
		name: "lossy",
		desc: "10% message drop plus bounded delays on every link",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			return Spec{
				Name: "lossy", N: n, Seed: seed,
				Fault: dynp2p.FaultConfig{DropProb: 0.10, DelayProb: 0.2, MaxDelay: 2},
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{StoreRate: 0.5}},
					{Name: "serve", Rounds: 6 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{RetrieveRate: 1.5}},
				},
			}
		},
	},
	{
		name: "attrition",
		desc: "oldest-first adversary ramps up until long-lived state collapses",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			return Spec{
				Name: "attrition", N: n, Seed: seed, Strategy: "oldest",
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.25},
						Load: Workload{StoreRate: 0.5, RetrieveRate: 0.2}},
					// Ramp the oldest-first rate from a survivable C≈0.2
					// to a lethal C≈0.6: early grind succeeds, then
					// committees stop outliving their handover period.
					{Name: "grind", Rounds: 8 * T,
						Churn: Churn{RampFrom: paperCount(n, 0.2), RampTo: paperCount(n, 0.6)},
						Load:  Workload{RetrieveRate: 1}},
				},
			}
		},
	},
	{
		name: "topology-storm",
		desc: "churn bursts against a self-healing topology (edit topology.edges to rerun on static or rerandomize)",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			burst := Churn{BurstPeriod: T, BurstWidth: max(1, T/4), BurstCount: max(2, n/12)}
			calm := Churn{Rate: 0.5}
			serve := Workload{RetrieveRate: 1}
			return Spec{
				Name: "topology-storm", N: n, Seed: seed,
				// Spectral telemetry every round: the whole point of the
				// scenario is charting λ as the peers repair the topology
				// through the bursts. The edge mode is the run's; the static
				// and oracle legs are this spec with topology.edges changed
				// (-dump, edit, -spec), at the same seed.
				Topology: Topology{Edges: dynp2p.EdgesSelfHealing, SpectralEvery: 1},
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: calm,
						Load: Workload{StoreRate: 0.5, RetrieveRate: 0.2}},
					{Name: "storm", Rounds: 3 * T, Churn: burst, Load: serve},
					{Name: "calm", Rounds: 2 * T, Churn: calm, Load: serve},
					{Name: "storm-2", Rounds: 3 * T, Churn: burst, Load: serve},
				},
			}
		},
	},
	{
		name: "hot-path-congestion",
		desc: "overlay-routed Zipf flash crowd; hot-key caching shortens walks and sheds link load",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			crowd := Workload{RetrieveRate: 25}
			// Every protocol message hops the expander edge-by-edge, so the
			// Zipf crowd's converging walks pile load onto the links around
			// the hot committees. Walk-seeded replicas let searches
			// terminate early at a holder, which shows up directly as
			// lower hop quantiles, fewer budget drops, and a smaller max
			// link load; the cold leg is the same run with -cachecap 0.
			return Spec{
				Name: "hot-path-congestion", N: n, Seed: seed, ZipfS: 3.0,
				Keys:    8,
				Cache:   dynp2p.CacheConfig{Capacity: 8, SeedRate: 1},
				Routing: dynp2p.RoutingConfig{Mode: dynp2p.RoutingOverlay},
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.5},
						Load: Workload{StoreRate: 0.5}},
					{Name: "crowd", Rounds: 8 * T, Churn: Churn{Rate: 0.5},
						Load: crowd},
				},
			}
		},
	},
	{
		name: "erasure-lossy",
		desc: "IDA erasure-coded storage (K=4) over a lossy network",
		build: func(n int, seed uint64) Spec {
			T := unit(n)
			return Spec{
				Name: "erasure-lossy", N: n, Seed: seed, ErasureK: 4,
				Fault: dynp2p.FaultConfig{DropProb: 0.08, DelayProb: 0.15, MaxDelay: 2},
				Phases: []Phase{
					{Name: "seed", Rounds: 3 * T, Churn: Churn{Rate: 0.25},
						Load: Workload{StoreRate: 0.5}},
					{Name: "serve", Rounds: 6 * T, Churn: Churn{Rate: 0.25},
						Load: Workload{RetrieveRate: 1.5}},
				},
			}
		},
	},
}

// unit returns the scenario time unit for size n: the walk length T.
func unit(n int) int { return walks.DefaultParams(n).WalkLength }

// paperCount converts a paper-law rate C into the per-round replacement
// count ⌊C·n/ln^{1.5} n⌋ (δ = 0.5), for laws that take fixed counts.
func paperCount(n int, c float64) int {
	return churn.RateLaw{C: c, K: 1.5}.PerRound(n, 0)
}

// Names returns the builtin scenario names, sorted.
func Names() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	sort.Strings(names)
	return names
}

// Describe returns name/description pairs in Names() order.
func Describe() [][2]string {
	out := make([][2]string, 0, len(builtins))
	for _, name := range Names() {
		for _, b := range builtins {
			if b.name == name {
				out = append(out, [2]string{b.name, b.desc})
			}
		}
	}
	return out
}

// Builtin builds the named scenario for size n and seed. The name must be
// one of Names().
func Builtin(name string, n int, seed uint64) (Spec, error) {
	for _, b := range builtins {
		if b.name == name {
			s := b.build(n, seed)
			s.normalize()
			if err := s.Validate(); err != nil {
				return Spec{}, fmt.Errorf("builtin %q: %w", name, err)
			}
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown builtin %q (have %v)", name, Names())
}
