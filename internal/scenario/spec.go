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
// adversary's seed so runs stay deterministic). Those blocks are the
// facade's own config types — dynp2p.CacheConfig, RoutingConfig,
// FaultConfig and EdgeMode — so their JSON tags and mode names (the
// modes' String and Parse functions) are the spec's JSON format, and a
// spec setting means what the same Config field means.
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
	// Degree is the expander degree (even; default 8; a power of two under
	// overlay routing).
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
	Cache dynp2p.CacheConfig `json:"cache,omitempty"`
	// Routing selects how protocol messages travel (DESIGN.md §11): the
	// zero value is the oracle (one-round teleports); mode "overlay"
	// walks every message edge-by-edge over the expander with link-load
	// accounting. The mode holds for the whole run; to compare the two,
	// run the spec once per mode (cmd/scenario -routing).
	Routing dynp2p.RoutingConfig `json:"routing,omitempty"`
	// Fault is the run's message fault model, from warm-up to drain: drop
	// is the per-message loss probability in [0, 1), and a surviving
	// message is delayed with probability delayProb by a uniform
	// 1..maxDelay extra rounds (set both or neither). The zero value
	// means reliable links.
	Fault dynp2p.FaultConfig `json:"fault,omitempty"`
	// Phases is the timeline; phases run in order after a soup warm-up.
	Phases []Phase `json:"phases"`
}

// Topology is the spec's topology block: which edge dynamics maintain
// the expander and how often to measure its spectral gap. The degree is
// the spec's top-level Degree.
type Topology struct {
	// Edges is the edge dynamics, named in JSON as
	// rerandomize | static | self-healing.
	// Absent means rerandomize. The mode holds for the whole run.
	Edges dynp2p.EdgeMode `json:"edges,omitempty"`
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

// checkCache validates the cache block.
func checkCache(c dynp2p.CacheConfig) error {
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

// checkFault validates the fault block.
func checkFault(f dynp2p.FaultConfig) error {
	switch {
	case f.DropProb < 0 || f.DropProb >= 1:
		return fmt.Errorf("fault drop must be in [0, 1) (got %g)", f.DropProb)
	case f.DelayProb < 0 || f.DelayProb > 1 || f.MaxDelay < 0:
		return fmt.Errorf("invalid fault delay config (delayProb %g, maxDelay %d)", f.DelayProb, f.MaxDelay)
	case (f.DelayProb > 0) != (f.MaxDelay > 0):
		return fmt.Errorf("fault delayProb and maxDelay must be set together (got %g, %d)", f.DelayProb, f.MaxDelay)
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
	case s.Routing.Mode == dynp2p.RoutingOverlay && s.Degree&(s.Degree-1) != 0:
		return fmt.Errorf("scenario %q: overlay routing needs a power-of-two degree (got %d)", s.Name, s.Degree)
	case len(s.Phases) == 0:
		return fmt.Errorf("scenario %q: needs at least one phase", s.Name)
	case s.Keys < 1:
		return fmt.Errorf("scenario %q: keys must be >= 1 (got %d)", s.Name, s.Keys)
	case s.ItemLen < 1:
		return fmt.Errorf("scenario %q: itemLen must be >= 1 (got %d)", s.Name, s.ItemLen)
	case s.ZipfS < 0:
		return fmt.Errorf("scenario %q: zipfS must be >= 0 (got %g)", s.Name, s.ZipfS)
	case s.ErasureK < 0 || s.ErasureK > s.params().CommitteeSize:
		return fmt.Errorf("scenario %q: erasureK must be in [0, %d], the committee size at n=%d (got %d)",
			s.Name, s.params().CommitteeSize, s.N, s.ErasureK)
	}
	if _, err := s.strategy(); err != nil {
		return err
	}
	if s.Topology.SpectralEvery < 0 {
		return fmt.Errorf("scenario %q: spectralEvery must be >= 0 (got %d)", s.Name, s.Topology.SpectralEvery)
	}
	if err := checkCache(s.Cache); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := checkFault(s.Fault); err != nil {
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

// DrainRounds returns the length of the workload-free tail of the run:
// the derived search TTL plus slack, so every retrieval issued in the
// last phase round either completes or expires before the run ends.
func (s *Spec) DrainRounds() int {
	return s.params().SearchTTL() + 4
}

// params returns the protocol parameters the run derives from N.
func (s *Spec) params() protocol.Params {
	return protocol.DefaultParams(s.N, walks.DefaultParams(s.N).WalkLength)
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
