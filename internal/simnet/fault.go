package simnet

import (
	"fmt"

	"dynp2p/internal/rng"
)

// FaultModel perturbs message delivery at routing time, modelling lossy or
// congested links on top of the paper's churn adversary. The engine
// consults the model once per sent message; the model may drop the message
// outright or delay its delivery by extra rounds (bounded, so the
// synchronous-round analysis still applies with a dilated round length).
//
// Determinism: the engine passes 64 bits of randomness derived by hashing
// (fault seed, send round, sender id, per-sender sequence), so a message's
// fate is a pure function of its identity — independent of worker count,
// goroutine scheduling, and the order messages are routed in. Fault
// randomness derives from the adversary seed: like churn, faults are part
// of the oblivious environment, not of the protocol's coin flips.
type FaultModel interface {
	// Fate decides what happens to message m sent in the given round:
	// drop it, or delay delivery by delay extra rounds beyond the normal
	// next-round delivery (0 = deliver normally). Implementations must be
	// pure functions of (round, m, rnd) and safe for concurrent use.
	Fate(round int, m *Msg, rnd uint64) (drop bool, delay int)
	String() string
}

// DropDelayFaults is the standard probabilistic fault model: each message
// is independently dropped with probability DropProb; each surviving
// message is delayed with probability DelayProb by a uniform 1..MaxDelay
// extra rounds. The zero value is a no-op (deliver everything on time).
type DropDelayFaults struct {
	DropProb  float64 `json:"drop,omitempty"`
	DelayProb float64 `json:"delayProb,omitempty"`
	MaxDelay  int     `json:"maxDelay,omitempty"`
}

// Zero reports whether the model never perturbs anything.
func (f DropDelayFaults) Zero() bool {
	return f.DropProb <= 0 && (f.DelayProb <= 0 || f.MaxDelay <= 0)
}

// Fate implements FaultModel.
func (f DropDelayFaults) Fate(_ int, _ *Msg, rnd uint64) (bool, int) {
	if f.DropProb > 0 {
		if rng.Unit(rnd) < f.DropProb {
			return true, 0
		}
	}
	if f.DelayProb > 0 && f.MaxDelay > 0 {
		rnd = rng.Remix(rnd)
		if rng.Unit(rnd) < f.DelayProb {
			rnd = rng.Remix(rnd)
			return false, 1 + int(rnd%uint64(f.MaxDelay))
		}
	}
	return false, 0
}

func (f DropDelayFaults) String() string {
	if f.Zero() {
		return "no faults"
	}
	s := fmt.Sprintf("drop %.3g%%", 100*f.DropProb)
	if f.DelayProb > 0 && f.MaxDelay > 0 {
		s += fmt.Sprintf(", delay %.3g%% by 1..%d", 100*f.DelayProb, f.MaxDelay)
	}
	return s
}

// delayedMsg is a message held back by the fault model.
type delayedMsg struct {
	deliverAt int // round whose inbox it lands in; route releases it the round before
	m         Msg
}

// release hands on the fault-delayed messages due next round, in the
// round before: route calls it ahead of the round's fresh sends, which
// every one of them precedes in the canonical order. It moves them into
// the first source, where they take the fresh sends' path without a
// second fate: under RoutingOracle a target that has already left drops
// it at the scatter, and one that leaves at next round's churn drops it
// there, with the fresh messages in its inbox; under RoutingOverlay it
// walks from its origin slot in next round's routed phase like any fresh
// send, so delay-released traffic too reaches its target edge-by-edge.
func (e *Engine) release() {
	rel := &e.sources[0]
	rel.out = rel.out[:0]
	kept := 0
	for i := range e.delayed {
		d := &e.delayed[i]
		if d.deliverAt > e.round+1 {
			if kept != i {
				e.delayed[kept] = *d
			}
			kept++
			continue
		}
		rel.out = append(rel.out, d.m)
	}
	e.delayed = e.delayed[:kept]
}
