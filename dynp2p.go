// Package dynp2p is a faithful, simulation-backed implementation of
// "Storage and Search in Dynamic Peer-to-Peer Networks" (Augustine, Molla,
// Morsy, Pandurangan, Robinson, Upfal; SPAA 2013): randomized distributed
// algorithms that store, maintain, and retrieve data items in a P2P
// network whose topology is an adversarially evolving d-regular expander
// with up to O(n/log^{1+δ} n) node replacements per round.
//
// The package is a facade over the full stack:
//
//	simnet   — the synchronous dynamic-network engine (model §2.1)
//	walks    — the random-walk "soup" (§3, Soup Theorem)
//	protocol — committees, landmarks, storage, search (§4, Algorithms 1-4)
//	ida      — Rabin's Information Dispersal erasure coding (§4.4)
//
// A minimal session:
//
//	nw := dynp2p.New(dynp2p.Config{N: 1024, ChurnRate: 1, ChurnDelta: 0.5, Seed: 7})
//	nw.Run(nw.WarmupRounds())          // let the walk soup mix
//	nw.Store(0, 42, []byte("payload")) // node at slot 0 stores item 42
//	nw.Run(nw.Tunables().Protocol.Period)
//	nw.Retrieve(512, 42, nil)          // another node searches for it
//	nw.Run(nw.Tunables().Protocol.SearchTTL)
//	for _, r := range nw.Results() { fmt.Println(r.Success, r.Done-r.Start) }
//
// Everything is deterministic in (Config.Seed, Config). See DESIGN.md for
// the architecture and EXPERIMENTS.md for the reproduction of each of the
// paper's theorems.
package dynp2p

import (
	"dynp2p/internal/churn"
	"dynp2p/internal/overlay"
	"dynp2p/internal/protocol"
	"dynp2p/internal/route"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// Strategy selects which nodes the oblivious adversary replaces.
type Strategy = churn.Strategy

// Churn strategies (re-exported).
const (
	Uniform       = churn.Uniform
	OldestFirst   = churn.OldestFirst
	YoungestFirst = churn.YoungestFirst
	SweepBurst    = churn.SweepBurst
)

// NodeID identifies a node.
type NodeID = simnet.NodeID

// Law determines how many nodes the adversary replaces per round
// (re-exported; see internal/churn for implementations, including the
// time-varying Schedule/Ramp/Burst laws used by scenarios).
type Law = churn.Law

// EdgeMode selects how the topology's edges evolve between rounds
// (re-exported; see internal/simnet).
type EdgeMode = simnet.EdgeMode

// Edge dynamics modes (re-exported). EdgesSelfHealing replaces the
// oracle with the peer-maintained repair of internal/overlay: live nodes
// detect dead neighbors and rebuild their adjacency from walk samples.
const (
	EdgesRerandomize = simnet.EdgesRerandomize
	EdgesStatic      = simnet.EdgesStatic
	EdgesSelfHealing = simnet.EdgesSelfHealing
)

// ParseEdgeMode resolves an edge-mode name ("rerandomize", "static",
// "self-healing") to its EdgeMode.
func ParseEdgeMode(s string) (EdgeMode, error) { return simnet.ParseEdgeMode(s) }

// RoutingMode selects how protocol messages travel (re-exported; see
// internal/simnet). RoutingOracle teleports each message to its
// addressee in one round — the historical engine exchange. RoutingOverlay
// walks every message edge-by-edge over the live expander with per-slot
// link capacities and bounded queues (DESIGN.md §11).
type RoutingMode = simnet.RoutingMode

// Routing modes (re-exported).
const (
	RoutingOracle  = simnet.RoutingOracle
	RoutingOverlay = simnet.RoutingOverlay
)

// ParseRoutingMode resolves a routing-mode name ("oracle", "overlay").
func ParseRoutingMode(s string) (RoutingMode, error) { return simnet.ParseRoutingMode(s) }

// RoutingConfig parameterises overlay message routing (re-exported):
// Mode, WalkBudget (0 = auto), LinkCapacity (0 = unlimited), QueueLimit
// (0 = default).
type RoutingConfig = simnet.RoutingConfig

// RouteMetrics is the overlay router's counter snapshot (re-exported).
type RouteMetrics = route.Metrics

// FaultModel perturbs message delivery at routing time (re-exported).
type FaultModel = simnet.FaultModel

// FaultConfig is the standard probabilistic fault model: independent
// message drop plus bounded uniform delivery delay (re-exported).
type FaultConfig = simnet.DropDelayFaults

// Result is the outcome of one retrieval.
type Result = protocol.SearchResult

// Config parameterises a network. Zero values get sensible defaults.
type Config struct {
	// N is the stable network size (required, >= 8).
	N int
	// Degree is the expander degree (even; default 8).
	Degree int
	// ChurnRate is C in the paper's churn law C·n/log^{1+δ} n replaced
	// per round. 0 disables churn.
	ChurnRate float64
	// ChurnDelta is δ in the churn law (default 0.5).
	ChurnDelta float64
	// ChurnLaw, when non-nil, replaces the ChurnRate/ChurnDelta-derived
	// law entirely — e.g. a churn.Schedule that varies rate over phases.
	ChurnLaw Law
	// Strategy picks which slots are replaced (default Uniform).
	Strategy Strategy
	// Fault, when non-nil, drops or delays messages at routing time.
	// Fault randomness derives from Seed's adversary stream, so faulty
	// runs stay deterministic. Fixed for the run, like Edges: the
	// oblivious adversary commits its whole environment before round 0.
	Fault FaultModel
	// Seed drives both the adversary (seed) and the protocol (seed+1);
	// the two streams are independent, which is what makes the adversary
	// oblivious.
	Seed uint64
	// ErasureK > 0 enables IDA erasure-coded storage (§4.4) with
	// reconstruction threshold K; pieces = committee size.
	ErasureK int
	// Workers bounds simulation parallelism (0 = all cores). It is a
	// throughput knob only: a run is bit-identical — same metrics, same
	// retrieval results, same walk samples — at every Workers value,
	// because handler randomness is per-node, fault fates are stateless
	// hashes, and message/token exchanges merge a fixed shard grid in
	// fixed order (see DESIGN.md §6). TestWorkerCountIndependence
	// enforces this.
	Workers int
	// Shards pins the slot-shard grid count (a power of two ≤ 256). 0
	// lets the engine pick from N and GOMAXPROCS. Like Workers it is a
	// throughput knob only: a run is bit-identical at every shard count
	// (TestShardCountIndependence).
	Shards int
	// Edges selects the topology's edge dynamics. The zero value is
	// EdgesRerandomize (the oracle draws a fresh expander every round).
	// EdgesSelfHealing turns the oracle off after round 0 and lets the
	// peers maintain the expander themselves (internal/overlay). Fixed for
	// the run; to compare modes, run the same seed once per mode.
	Edges EdgeMode
	// SpectralEvery estimates the topology's second eigenvalue λ every
	// k rounds (0 = off), surfaced in Stats.Overlay. Telemetry only: it
	// never affects the simulation's behaviour.
	SpectralEvery int
	// Routing selects how protocol messages travel, for the whole run.
	// The zero value is RoutingOracle: every message teleports to its
	// addressee and arrives the next round if the addressee is still
	// live. Routing.Mode = RoutingOverlay makes every protocol message
	// walk the expander edge-by-edge with congestion accounting: it
	// arrives the next round unless it parks at a congested node or is
	// dropped. To compare the two, run the same seed once per mode.
	Routing RoutingConfig
	// Cache enables hot-key caching (DESIGN.md §10): completed retrievals
	// are cached and probabilistically replicated along walk samples, so
	// hot keys resolve without committee formation. The zero value
	// disables caching. Fixed for the run, like Edges and Routing.
	Cache CacheConfig
	// TraceSampleEvery enables operation-lifecycle tracing: roughly one in
	// k store/search operations is sampled (deterministically, by hashing
	// the operation key and issuer against Seed) and its per-round hop and
	// completion events feed the dynp2p_search_*/dynp2p_store_* histograms.
	// 1 traces every operation; 0 disables tracing.
	TraceSampleEvery int
	// Profile enables the round-phase profiler: wall-clock time per engine
	// phase (churn/topology/deliver/soup/overlay/handlers/route), exposed
	// via Network.Profiler(). Timing-only; never affects determinism.
	Profile bool
}

// CacheConfig parameterises the hot-key cache. Capacity is per-node
// entries (0 = caching off); TTL is the entry lifetime in rounds (0 =
// 2× the landmark TTL); SeedRate is the probability an eligible walk
// sample receives a replica when a node completes or serves a retrieval
// (0 = 0.5).
type CacheConfig struct {
	Capacity int
	TTL      int
	SeedRate float64
}

// Tunables exposes the derived protocol and walk parameters of a network.
type Tunables struct {
	Walks    walks.Params
	Protocol protocol.Params
}

// Stats is a combined metrics snapshot.
type Stats struct {
	Engine  simnet.Metrics
	Soup    walks.Metrics
	Proto   protocol.Counters
	Overlay overlay.Metrics
	Route   RouteMetrics // zero under RoutingOracle
}

// Network is a running simulation of the paper's system.
type Network struct {
	cfg  Config
	e    *simnet.Engine
	soup *walks.Soup
	ov   *overlay.Overlay
	h    *protocol.Handler
}

// New builds a network. Panics on invalid configuration (this is a
// constructor for experiments and examples; misconfiguration is a bug).
func New(cfg Config) *Network { return NewCustom(cfg, nil) }

// NewCustom builds a network and lets the caller adjust the derived walk
// and protocol parameters before the stack is assembled (used by the
// ablation experiments; most callers want New).
func NewCustom(cfg Config, adjust func(*walks.Params, *protocol.Params)) *Network {
	if cfg.N < 8 {
		panic("dynp2p: N must be at least 8")
	}
	if cfg.Degree == 0 {
		cfg.Degree = 8
	}
	if cfg.ChurnDelta == 0 {
		cfg.ChurnDelta = 0.5
	}
	var law churn.Law = churn.ZeroLaw{}
	if cfg.ChurnRate > 0 {
		law = churn.PaperLaw(cfg.ChurnRate, cfg.ChurnDelta)
	}
	if cfg.ChurnLaw != nil {
		law = cfg.ChurnLaw
	}
	e := simnet.New(simnet.Config{
		N: cfg.N, Degree: cfg.Degree, EdgeMode: cfg.Edges,
		AdversarySeed: cfg.Seed, ProtocolSeed: cfg.Seed + 1,
		Strategy: cfg.Strategy, Law: law, Fault: cfg.Fault, Workers: cfg.Workers,
		Shards: cfg.Shards, Routing: cfg.Routing,
	})
	wp := walks.DefaultParams(cfg.N)
	pp := protocol.DefaultParams(cfg.N, wp.WalkLength)
	pp.IDAThreshold = cfg.ErasureK
	pp.CacheCapacity = cfg.Cache.Capacity
	pp.CacheTTL = cfg.Cache.TTL
	pp.CacheSeedRate = cfg.Cache.SeedRate
	if adjust != nil {
		adjust(&wp, &pp)
	}
	soup := walks.NewSoup(e, wp, cfg.Workers)
	e.AddNamedHook("soup", soup)
	// The overlay hook must follow the soup: repair consumes the round's
	// fresh samples and must rewire only after the soup's snapshot. It is
	// always registered (repairs are inert outside EdgesSelfHealing): its
	// spectral telemetry runs under every edge mode.
	ov := overlay.New(e, soup, overlay.Config{SpectralEvery: cfg.SpectralEvery})
	e.AddNamedHook("overlay", ov)
	h := protocol.NewHandler(e, soup, pp)
	if cfg.TraceSampleEvery > 0 {
		e.SetTracer(telemetry.NewTracer(e.Telemetry(), cfg.Seed, cfg.TraceSampleEvery))
	}
	if cfg.Profile {
		e.EnableProfiling()
	}
	return &Network{cfg: cfg, e: e, soup: soup, ov: ov, h: h}
}

// Run advances the simulation by the given number of rounds.
func (nw *Network) Run(rounds int) {
	nw.e.Run(nw.h, rounds)
}

// Round returns the current round number.
func (nw *Network) Round() int { return nw.e.Round() }

// N returns the stable network size.
func (nw *Network) N() int { return nw.e.N() }

// WarmupRounds returns how many rounds the walk soup needs before nodes
// have samples to build committees from (one walk length plus slack).
func (nw *Network) WarmupRounds() int { return nw.soup.Params().WalkLength + 3 }

// Tunables returns the derived parameters in use.
func (nw *Network) Tunables() Tunables {
	return Tunables{Walks: nw.soup.Params(), Protocol: nw.h.P}
}

// Store asks the node currently at slot to persistently store (key, data).
// Call between Run calls.
func (nw *Network) Store(slot int, key uint64, data []byte) {
	nw.h.RequestStore(nw.e, slot, key, data)
}

// Retrieve asks the node currently at slot to find item key. When expect
// is non-nil the retrieved bytes are verified against it. Call between Run
// calls.
func (nw *Network) Retrieve(slot int, key uint64, expect []byte) {
	nw.h.RequestRetrieve(nw.e, slot, key, expect)
}

// Results returns (and clears) completed retrievals.
func (nw *Network) Results() []Result { return nw.h.DrainResults() }

// Stats returns a combined metrics snapshot.
func (nw *Network) Stats() Stats {
	return Stats{
		Engine: nw.e.Metrics(), Soup: nw.soup.Metrics(),
		Proto: nw.h.Counters(), Overlay: nw.ov.Metrics(),
		Route: nw.e.RouteMetrics(),
	}
}

// CopyCount reports how many nodes currently hold a copy (or erasure
// piece) of the item.
func (nw *Network) CopyCount(key uint64) int { return nw.h.CopyCount(key) }

// LandmarkCount reports the current number of storage landmarks
// advertising the item.
func (nw *Network) LandmarkCount(key uint64) int {
	return nw.h.StorageLandmarkCount(key, nw.e.Round())
}

// CommitteeSize reports the current number of live members of the item's
// storage committee.
func (nw *Network) CommitteeSize(key uint64) int {
	return len(nw.h.CommitteeSlots(key))
}

// IsLive reports whether a node id is still in the network.
func (nw *Network) IsLive(id NodeID) bool { return nw.e.IsLive(id) }

// OldestSlot returns the slot whose occupant has been in the network the
// longest (ties broken by slot index). Such a node is in the paper's Core
// with overwhelming probability, which makes it the natural issuer of
// store operations in experiments: Theorems 3 and 4 guarantee behaviour
// for long-lived nodes, not for peers that joined moments ago.
func (nw *Network) OldestSlot() int {
	best, bestJoin := 0, int(^uint(0)>>1)
	for s := 0; s < nw.e.N(); s++ {
		if jr := nw.e.JoinRound(s); jr < bestJoin {
			best, bestJoin = s, jr
		}
	}
	return best
}

// IDAt returns the id of the node currently occupying slot.
func (nw *Network) IDAt(slot int) NodeID { return nw.e.IDAt(slot) }

// Telemetry returns the network's metrics registry: every subsystem's
// counters, gauges, and histograms, snapshottable between Run calls.
func (nw *Network) Telemetry() *telemetry.Registry { return nw.e.Telemetry() }

// Tracer returns the operation-lifecycle tracer, or nil when
// Config.TraceSampleEvery is 0.
func (nw *Network) Tracer() *telemetry.Tracer { return nw.e.Tracer() }

// Profiler returns the round-phase profiler, or nil when Config.Profile
// is false.
func (nw *Network) Profiler() *telemetry.PhaseProfiler { return nw.e.Profiler() }

// Engine exposes the underlying engine for advanced instrumentation
// (experiments, custom hooks). Most callers never need it.
func (nw *Network) Engine() *simnet.Engine { return nw.e }

// Handler exposes the protocol handler for advanced introspection.
func (nw *Network) Handler() *protocol.Handler { return nw.h }

// Soup exposes the walk soup for advanced introspection.
func (nw *Network) Soup() *walks.Soup { return nw.soup }

// Overlay exposes the self-healing overlay for advanced introspection
// (always present; repairs are active only under EdgesSelfHealing).
func (nw *Network) Overlay() *overlay.Overlay { return nw.ov }
