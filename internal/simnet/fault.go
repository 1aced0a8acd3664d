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
	deliverAt int // round at which delivery is attempted
	m         Msg
}

// deliverDelayed moves fault-delayed messages whose time has come into the
// round's inbox, inserting each at its canonical sort position (fresh
// messages arrive pre-ordered; only this path pays for an insertion).
// Targets that have since been churned out drop the message, the same
// failure mode as normal routing.
//
// Under RoutingOverlay a due message is instead handed back to the
// overlay router: it resumes as a fresh walk from its origin slot during
// this round's routed phase, so even delay-released traffic reaches its
// target edge-by-edge — no teleports.
func (e *Engine) deliverDelayed(round int) {
	if len(e.delayed) == 0 {
		return
	}
	kept := 0
	for i := range e.delayed {
		d := &e.delayed[i]
		if d.deliverAt > round {
			if kept != i {
				e.delayed[kept] = *d
			}
			kept++
			continue
		}
		if e.router != nil {
			e.sendToRouter(&d.m)
			continue
		}
		s, ok := e.slotOf(d.m.To)
		if !ok {
			e.em.dropped.Inc(0)
			continue
		}
		e.insertCanonical(s, &d.m)
		e.em.delivered.Inc(0)
	}
	e.delayed = e.delayed[:kept]
}
