// Package scenario is the declarative experiment engine for the dynamic
// P2P simulator: it turns "run an experiment" into data instead of code.
//
// A Spec (a plain Go struct, JSON-loadable) describes a timeline of
// phases. Each phase sets two independent knobs:
//
//   - a churn law and rate (steady paper-law churn, fixed counts,
//     bursts, ramps, or quiet) — compiled into a single pre-committed
//     churn.Schedule so the adversary stays oblivious; and
//   - an open-loop workload (store/retrieve arrivals per round, Poisson
//     distributed, with Zipf-distributed key popularity).
//
// The rest of the environment is the run's, fixed before round 0: the
// topology, the routing mode, the hot-key cache, and the fault model
// (probabilistic message drop and bounded delivery delay, drawn from the
// adversary's seed so runs stay deterministic).
//
// The Runner executes a Spec on a dynp2p.Network, tracks per-request SLOs
// (success rate, locate/complete latency quantiles), optionally emits a
// per-round JSONL trace, and produces a final Report table. A library of
// named builtin scenarios (see builtin.go) covers the standard shapes:
// steady-state, flash-crowd retrieval, churn bursts, lossy networks,
// oldest-first attrition, and erasure-coded storage over lossy links.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"dynp2p"
	"dynp2p/internal/churn"
	"dynp2p/internal/protocol"
	"dynp2p/internal/walks"
)

// Spec is a complete declarative description of one experiment run.
// Everything the run does is a pure function of the Spec, so specs can be
// stored, diffed, and replayed byte-for-byte.
type Spec struct {
	// Name labels the run in traces and reports.
	Name string `json:"name"`
	// N is the stable network size (>= 8).
	N int `json:"n"`
	// Degree is the expander degree (even; default 8).
	Degree int `json:"degree,omitempty"`
	// Seed drives the whole run: adversary (churn + faults), protocol,
	// and workload draw from independent streams derived from it.
	Seed uint64 `json:"seed"`
	// Strategy picks which slots churn replaces:
	// uniform | oldest | youngest | sweep (default uniform).
	Strategy string `json:"strategy,omitempty"`
	// ErasureK > 0 enables IDA erasure coding with threshold K.
	ErasureK int `json:"erasureK,omitempty"`
	// Keys is the size of the key universe the workload stores and
	// retrieves from (default 16).
	Keys int `json:"keys,omitempty"`
	// ItemLen is the payload size in bytes (default 128).
	ItemLen int `json:"itemLen,omitempty"`
	// ZipfS is the key-popularity exponent for retrievals: rank i is
	// retrieved with probability ∝ 1/(i+1)^s. Default 0.9 (classic
	// web-cache skew); use a tiny positive value for ~uniform popularity.
	ZipfS float64 `json:"zipfS,omitempty"`
	// Topology selects the run's edge dynamics (default: the oracle
	// re-randomizing every round) and spectral telemetry cadence.
	Topology Topology `json:"topology,omitempty"`
	// Cache enables hot-key caching (DESIGN.md §10) for the whole run;
	// the zero value disables caching. To compare cache settings, run the
	// spec once per setting (cmd/scenario -cachecap).
	Cache CacheSpec `json:"cache,omitempty"`
	// Routing selects how protocol messages travel (DESIGN.md §11): the
	// zero value is the oracle (one-round teleports); mode "overlay"
	// walks every message edge-by-edge over the expander with congestion
	// accounting. The mode holds for the whole run; to compare the two,
	// run the spec once per mode (cmd/scenario -routing).
	Routing RoutingSpec `json:"routing,omitempty"`
	// Fault is the run's message fault model, from warm-up to drain; the
	// zero value means reliable links.
	Fault Fault `json:"fault,omitempty"`
	// Phases is the timeline; phases run in order after a soup warm-up.
	Phases []Phase `json:"phases"`
}

// Topology is the spec's topology block: which edge dynamics maintain
// the expander and how often to measure its spectral gap. The degree is
// the spec's top-level Degree.
type Topology struct {
	// Edges names the edge dynamics:
	// rerandomize | static | self-healing.
	// Empty means rerandomize. The mode holds for the whole run.
	Edges string `json:"edges,omitempty"`
	// SpectralEvery estimates the second eigenvalue λ every k rounds
	// (0 = off); measured values appear in traces and phase reports.
	SpectralEvery int `json:"spectralEvery,omitempty"`
}

// Phase is one segment of the timeline.
type Phase struct {
	Name   string   `json:"name"`
	Rounds int      `json:"rounds"`
	Churn  Churn    `json:"churn,omitempty"`
	Load   Workload `json:"load,omitempty"`
}

// CacheSpec configures the hot-key cache (DESIGN.md §10): per-node
// Capacity in items (0 = caching off), TTL in rounds (0 = 2× the
// landmark TTL), and the walk-seeded replication probability SeedRate
// (0 = 0.5).
type CacheSpec struct {
	Capacity int     `json:"capacity,omitempty"`
	TTL      int     `json:"ttl,omitempty"`
	SeedRate float64 `json:"seedRate,omitempty"`
}

// config compiles the cache block for the facade.
func (c CacheSpec) config() dynp2p.CacheConfig {
	return dynp2p.CacheConfig{Capacity: c.Capacity, TTL: c.TTL, SeedRate: c.SeedRate}
}

// check validates the cache block.
func (c CacheSpec) check() error {
	switch {
	case c.Capacity < 0:
		return fmt.Errorf("cache capacity must be >= 0 (got %d)", c.Capacity)
	case c.TTL < 0:
		return fmt.Errorf("cache ttl must be >= 0 (got %d)", c.TTL)
	case c.SeedRate < 0 || c.SeedRate > 1:
		return fmt.Errorf("cache seedRate must be in [0, 1] (got %g)", c.SeedRate)
	}
	return nil
}

// RoutingSpec configures overlay message routing (DESIGN.md §11): Mode
// is "oracle" (default) or "overlay"; WalkBudget is the per-message
// forward budget (0 = auto, 4n/(d+1)); LinkCapacity bounds forwards out
// of one node per round (0 = unlimited); QueueLimit bounds parked
// walkers per node (0 = default 64).
type RoutingSpec struct {
	Mode         string `json:"mode,omitempty"`
	WalkBudget   int    `json:"walkBudget,omitempty"`
	LinkCapacity int    `json:"linkCapacity,omitempty"`
	QueueLimit   int    `json:"queueLimit,omitempty"`
}

// config compiles the routing block for the facade.
func (r RoutingSpec) config() dynp2p.RoutingConfig {
	mode, _ := dynp2p.ParseRoutingMode(r.Mode) // validated by check()
	return dynp2p.RoutingConfig{
		Mode: mode, WalkBudget: r.WalkBudget,
		LinkCapacity: r.LinkCapacity, QueueLimit: r.QueueLimit,
	}
}

// check validates the routing block.
func (r RoutingSpec) check() error {
	if _, err := dynp2p.ParseRoutingMode(r.Mode); err != nil {
		return fmt.Errorf("routing mode %q (want oracle|overlay)", r.Mode)
	}
	switch {
	case r.WalkBudget < 0:
		return fmt.Errorf("routing walkBudget must be >= 0 (got %d)", r.WalkBudget)
	case r.LinkCapacity < 0:
		return fmt.Errorf("routing linkCapacity must be >= 0 (got %d)", r.LinkCapacity)
	case r.QueueLimit < 0:
		return fmt.Errorf("routing queueLimit must be >= 0 (got %d)", r.QueueLimit)
	}
	return nil
}

// Churn configures the churn law for one phase. Exactly one shape is
// active, chosen by precedence: Burst* > RampTo/RampFrom > Fixed > Rate >
// quiet. The zero value means no churn.
type Churn struct {
	// Rate is C in the paper's law C·n/log^{1+δ} n per round.
	Rate float64 `json:"rate,omitempty"`
	// Delta is δ in the paper's law (default 0.5).
	Delta float64 `json:"delta,omitempty"`
	// Fixed replaces exactly this many nodes per round.
	Fixed int `json:"fixed,omitempty"`
	// RampFrom/RampTo linearly ramp a fixed per-round count across the
	// phase (either may be 0; active when RampTo differs from RampFrom).
	RampFrom int `json:"rampFrom,omitempty"`
	RampTo   int `json:"rampTo,omitempty"`
	// BurstPeriod/BurstWidth/BurstCount replace BurstCount nodes per
	// round for the first BurstWidth rounds of every BurstPeriod rounds.
	BurstPeriod int `json:"burstPeriod,omitempty"`
	BurstWidth  int `json:"burstWidth,omitempty"`
	BurstCount  int `json:"burstCount,omitempty"`
}

// law compiles the phase churn config into a churn.Law. phaseRounds is
// the phase duration (used to span ramps).
func (c Churn) law(phaseRounds int) churn.Law {
	switch {
	case c.BurstPeriod > 0 && c.BurstWidth > 0 && c.BurstCount > 0:
		return churn.BurstLaw{Period: c.BurstPeriod, Width: c.BurstWidth, Count: c.BurstCount}
	case c.RampFrom != c.RampTo:
		return churn.RampLaw{
			From:   churn.FixedLaw{Count: c.RampFrom},
			To:     churn.FixedLaw{Count: c.RampTo},
			Rounds: phaseRounds,
		}
	case c.Fixed > 0:
		return churn.FixedLaw{Count: c.Fixed}
	case c.Rate > 0:
		d := c.Delta
		if d == 0 {
			d = 0.5
		}
		return churn.PaperLaw(c.Rate, d)
	default:
		return churn.ZeroLaw{}
	}
}

// Workload is an open-loop arrival process: each round the runner issues
// Poisson(StoreRate) store requests and Poisson(RetrieveRate) retrievals.
// Store requests walk through the key universe in order (each key is
// stored once); retrievals pick among already-stored keys by Zipf rank.
type Workload struct {
	StoreRate    float64 `json:"storeRate,omitempty"`
	RetrieveRate float64 `json:"retrieveRate,omitempty"`
}

// Fault configures the run's message fault model (see simnet.FaultModel).
// The zero value means reliable links.
type Fault struct {
	// Drop is the independent per-message loss probability in [0, 1).
	Drop float64 `json:"drop,omitempty"`
	// DelayProb delays a surviving message with this probability ...
	DelayProb float64 `json:"delayProb,omitempty"`
	// MaxDelay ... by a uniform 1..MaxDelay extra rounds. Set both or
	// neither.
	MaxDelay int `json:"maxDelay,omitempty"`
}

// model compiles the fault config; nil means reliable links.
func (f Fault) model() dynp2p.FaultModel {
	fc := dynp2p.FaultConfig{DropProb: f.Drop, DelayProb: f.DelayProb, MaxDelay: f.MaxDelay}
	if fc.Zero() {
		return nil
	}
	return fc
}

// check validates the fault block.
func (f Fault) check() error {
	switch {
	case f.Drop < 0 || f.Drop >= 1:
		return fmt.Errorf("fault drop must be in [0, 1) (got %g)", f.Drop)
	case f.DelayProb < 0 || f.DelayProb > 1 || f.MaxDelay < 0:
		return fmt.Errorf("invalid fault delay config (delayProb %g, maxDelay %d)", f.DelayProb, f.MaxDelay)
	case (f.DelayProb > 0) != (f.MaxDelay > 0):
		return fmt.Errorf("fault delayProb and maxDelay must be set together (got %g, %d)", f.DelayProb, f.MaxDelay)
	}
	return nil
}

// normalize fills defaults in place.
func (s *Spec) normalize() {
	if s.Degree == 0 {
		s.Degree = 8
	}
	if s.Strategy == "" {
		s.Strategy = "uniform"
	}
	if s.Keys == 0 {
		s.Keys = 16
	}
	if s.ItemLen == 0 {
		s.ItemLen = 128
	}
	if s.ZipfS == 0 {
		s.ZipfS = 0.9
	}
}

// Validate checks the spec and returns a descriptive error on the first
// problem found.
func (s *Spec) Validate() error {
	switch {
	case s.N < 8:
		return fmt.Errorf("scenario %q: n must be >= 8 (got %d)", s.Name, s.N)
	case s.Degree%2 != 0 || s.Degree <= 0:
		return fmt.Errorf("scenario %q: degree must be positive and even (got %d)", s.Name, s.Degree)
	case len(s.Phases) == 0:
		return fmt.Errorf("scenario %q: needs at least one phase", s.Name)
	case s.Keys < 1:
		return fmt.Errorf("scenario %q: keys must be >= 1 (got %d)", s.Name, s.Keys)
	case s.ItemLen < 1:
		return fmt.Errorf("scenario %q: itemLen must be >= 1 (got %d)", s.Name, s.ItemLen)
	case s.ZipfS < 0:
		return fmt.Errorf("scenario %q: zipfS must be >= 0 (got %g)", s.Name, s.ZipfS)
	case s.ErasureK < 0:
		return fmt.Errorf("scenario %q: erasureK must be >= 0 (got %d)", s.Name, s.ErasureK)
	}
	if _, err := s.strategy(); err != nil {
		return err
	}
	if _, err := s.edgeMode(); err != nil {
		return err
	}
	if s.Topology.SpectralEvery < 0 {
		return fmt.Errorf("scenario %q: spectralEvery must be >= 0 (got %d)", s.Name, s.Topology.SpectralEvery)
	}
	if err := s.Cache.check(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Routing.check(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Fault.check(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	for i, p := range s.Phases {
		switch {
		case p.Rounds <= 0:
			return fmt.Errorf("scenario %q phase %d (%s): rounds must be > 0", s.Name, i, p.Name)
		case p.Load.StoreRate < 0 || p.Load.RetrieveRate < 0:
			return fmt.Errorf("scenario %q phase %d (%s): negative workload rate", s.Name, i, p.Name)
		case p.Churn.Rate < 0 || p.Churn.Fixed < 0 || p.Churn.RampFrom < 0 || p.Churn.RampTo < 0 || p.Churn.BurstCount < 0:
			return fmt.Errorf("scenario %q phase %d (%s): negative churn config", s.Name, i, p.Name)
		case p.Churn.Delta < 0:
			return fmt.Errorf("scenario %q phase %d (%s): churn delta must be >= 0", s.Name, i, p.Name)
		case p.Churn.BurstPeriod > 0 && p.Churn.BurstWidth > p.Churn.BurstPeriod:
			return fmt.Errorf("scenario %q phase %d (%s): burstWidth %d exceeds burstPeriod %d (the burst would never pause)",
				s.Name, i, p.Name, p.Churn.BurstWidth, p.Churn.BurstPeriod)
		}
	}
	return nil
}

// edgeMode parses the topology block's Edges field (empty = the oracle
// default, rerandomize).
func (s *Spec) edgeMode() (dynp2p.EdgeMode, error) {
	if s.Topology.Edges == "" {
		return dynp2p.EdgesRerandomize, nil
	}
	m, err := dynp2p.ParseEdgeMode(s.Topology.Edges)
	if err != nil {
		return 0, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return m, nil
}

// strategy parses the Strategy field.
func (s *Spec) strategy() (dynp2p.Strategy, error) {
	switch strings.ToLower(s.Strategy) {
	case "", "uniform":
		return dynp2p.Uniform, nil
	case "oldest":
		return dynp2p.OldestFirst, nil
	case "youngest":
		return dynp2p.YoungestFirst, nil
	case "sweep":
		return dynp2p.SweepBurst, nil
	default:
		return 0, fmt.Errorf("scenario %q: unknown strategy %q (want uniform|oldest|youngest|sweep)", s.Name, s.Strategy)
	}
}

// WarmupRounds returns the soup warm-up prepended to the timeline: one
// walk length plus slack, matching dynp2p.Network.WarmupRounds.
func (s *Spec) WarmupRounds() int {
	return walks.DefaultParams(s.N).WalkLength + 3
}

// TotalRounds returns warm-up plus the sum of phase durations plus the
// final drain (one search TTL of workload-free rounds that lets in-flight
// retrievals finish or expire).
func (s *Spec) TotalRounds() int {
	t := s.WarmupRounds() + s.DrainRounds()
	for _, p := range s.Phases {
		t += p.Rounds
	}
	return t
}

// DrainRounds returns the length of the workload-free tail of the run:
// the derived search TTL plus slack, so every retrieval issued in the
// last phase round either completes or expires before the run ends.
func (s *Spec) DrainRounds() int {
	wp := walks.DefaultParams(s.N)
	return protocol.DefaultParams(s.N, wp.WalkLength).SearchTTL + 4
}

// schedule compiles the per-phase churn configs into one pre-committed
// churn.Schedule covering warm-up (phase 0's law), every phase, and the
// quiet drain tail.
func (s *Spec) schedule() churn.Schedule {
	segs := make([]churn.Segment, 0, len(s.Phases)+1)
	warm := s.WarmupRounds()
	segs = append(segs, churn.Segment{Rounds: warm, Law: s.Phases[0].Churn.law(warm)})
	for _, p := range s.Phases {
		segs = append(segs, churn.Segment{Rounds: p.Rounds, Law: p.Churn.law(p.Rounds)})
	}
	// After the last segment the Schedule is quiet, which is exactly the
	// drain semantics.
	return churn.Schedule{Segments: segs}
}

// ParseSpec decodes a Spec from JSON, rejecting unknown fields so typos in
// hand-written specs fail loudly.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	s.normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and parses a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: reading spec: %w", err)
	}
	return ParseSpec(data)
}

// MarshalIndent renders the spec as formatted JSON (for -dump and tests).
func (s Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
