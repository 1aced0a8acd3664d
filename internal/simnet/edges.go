package simnet

// Edge dynamics: in every round the live slots must form a d-regular
// non-bipartite expander (paper §2.1), while the adversary is free to
// change edges arbitrarily between rounds. The engine owns the topology
// and offers three edge dynamics, all driven by the adversary's seed, so
// like churn they are part of the oblivious pre-commitment:
//
//   - EdgesRerandomize: a fresh permutation-model d-regular graph every
//     round — the most dynamic topology the model allows;
//   - EdgesStatic: one random expander for the whole execution (only node
//     occupants change) — the gentlest topology;
//   - EdgesSelfHealing: the oracle builds only the round-0 graph and then
//     never touches an edge again — the live nodes themselves maintain the
//     expander by local, sample-driven repair (internal/overlay, a round
//     hook).
//
// Random d-regular permutation-model graphs are non-bipartite and
// expanding w.h.p.

import (
	"fmt"
	"strings"
)

// EdgeMode selects how the topology evolves between rounds. It is the
// run's, fixed at construction (Config.EdgeMode).
type EdgeMode int

// Edge dynamics modes.
const (
	EdgesRerandomize EdgeMode = iota
	EdgesStatic
	// EdgesSelfHealing disables the oracle after round 0: the topology
	// only changes through the peer-maintained repair of internal/overlay.
	EdgesSelfHealing
)

func (m EdgeMode) String() string {
	switch m {
	case EdgesRerandomize:
		return "rerandomize"
	case EdgesStatic:
		return "static"
	case EdgesSelfHealing:
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
		return EdgesRerandomize, nil
	case "static":
		return EdgesStatic, nil
	case "self-healing", "selfhealing":
		return EdgesSelfHealing, nil
	default:
		return 0, fmt.Errorf("simnet: unknown edge mode %q (want rerandomize|static|self-healing)", s)
	}
}
