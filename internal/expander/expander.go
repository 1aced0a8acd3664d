// Package expander maintains the dynamic expander topology of the model:
// in every round the live slots must form a d-regular non-bipartite
// expander (paper §2.1), while the adversary is free to change edges
// arbitrarily between rounds.
//
// The package offers three edge dynamics, all driven by the adversary's
// seed (so they are part of the oblivious pre-commitment):
//
//   - Rerandomize: a fresh permutation-model d-regular graph every round —
//     the most dynamic topology the model allows;
//   - Static: one random expander for the whole execution (only node
//     occupants change) — the gentlest topology;
//   - SelfHealing: the oracle builds only the round-0 graph and then
//     never touches an edge again — the live nodes themselves maintain
//     the expander by local, sample-driven repair (internal/overlay).
//     Step is a no-op in this mode; the repair runs as a round hook.
//
// Random d-regular permutation-model graphs are non-bipartite and expanding
// w.h.p.; because a vanishing-probability bipartite draw would break the
// walk analysis, consumers can additionally run lazy random walks (see
// internal/walks), the standard remedy which the paper's regularity
// assumption tolerates (laziness is equivalent to adding d self-loops).
package expander

import (
	"fmt"
	"strings"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
)

// EdgeMode selects how the topology evolves between rounds.
type EdgeMode int

// Edge dynamics modes.
const (
	Rerandomize EdgeMode = iota
	Static
	// SelfHealing disables the oracle after round 0: the topology only
	// changes through the peer-maintained repair of internal/overlay.
	SelfHealing
)

// Modes returns every valid edge mode, in declaration order. Tests and
// CLIs enumerate it so a newly added mode cannot be missed.
func Modes() []EdgeMode {
	return []EdgeMode{Rerandomize, Static, SelfHealing}
}

func (m EdgeMode) String() string {
	switch m {
	case Rerandomize:
		return "rerandomize"
	case Static:
		return "static"
	case SelfHealing:
		return "self-healing"
	default:
		return fmt.Sprintf("edgemode(%d)", int(m))
	}
}

// ParseEdgeMode is the inverse of String: it resolves a mode name
// (case-insensitive, with the obvious punctuation-free aliases) to its
// EdgeMode. JSON scenario specs and CLI flags select topologies with it.
func ParseEdgeMode(s string) (EdgeMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "rerandomize":
		return Rerandomize, nil
	case "static":
		return Static, nil
	case "self-healing", "selfhealing":
		return SelfHealing, nil
	default:
		return 0, fmt.Errorf("expander: unknown edge mode %q (want one of %v)", s, Modes())
	}
}

// Config parameterises a dynamic expander.
type Config struct {
	N      int      // stable network size (slots)
	Degree int      // regular degree d (even)
	Mode   EdgeMode // edge dynamics
}

// Dynamic is the evolving topology. It is deterministic in (Config, seed).
type Dynamic struct {
	cfg Config
	g   *graph.Graph
	r   *rng.Stream
}

// New creates the round-0 topology.
func New(cfg Config, seed uint64) *Dynamic {
	if cfg.N <= 2 {
		panic("expander: need at least 3 slots")
	}
	if cfg.Degree < 2 || cfg.Degree%2 != 0 {
		panic("expander: degree must be even and >= 2")
	}
	d := &Dynamic{
		cfg: cfg,
		g:   graph.New(cfg.N, cfg.Degree),
		r:   rng.Derive(seed, 0xed6e),
	}
	d.g.FillRandomRegular(d.r)
	return d
}

// Graph returns the current topology. The graph is owned by Dynamic; it is
// valid until the next Step call.
func (d *Dynamic) Graph() *graph.Graph { return d.g }

// Config returns the configuration.
func (d *Dynamic) Config() Config { return d.cfg }

// Step advances the topology to the given round (call once per round,
// with strictly increasing round numbers starting at 1).
func (d *Dynamic) Step(round int) {
	switch d.cfg.Mode {
	case Rerandomize:
		d.g.FillRandomRegular(d.r)
	case Static, SelfHealing:
		// The oracle never touches edges again. Under SelfHealing the
		// graph still evolves — through overlay repair, not here.
	default:
		panic("expander: unknown edge mode")
	}
}
