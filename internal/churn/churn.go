// Package churn implements the oblivious adversary of the paper's model
// (§2.1): before round 0 the adversary commits to which nodes are replaced
// in every round. Obliviousness is realised by driving every adversary
// decision from a dedicated RNG stream that is independent of the protocol
// stream — the resulting schedule is a deterministic function of the
// adversary seed, fixed "in advance", and cannot depend on the algorithm's
// coin flips.
//
// The adversary has two degrees of freedom, mirroring the model:
//
//   - a Law fixing *how many* nodes are replaced per round (the churn
//     rate, e.g. the paper's C·n/log^K n), and
//   - a Strategy fixing *which* slots are replaced (uniform, oldest-first,
//     youngest-first, sweeping bursts).
package churn

import (
	"fmt"
	"math"

	"dynp2p/internal/rng"
)

// Law determines the number of replacements in a given round for a network
// of stable size n.
type Law interface {
	// PerRound returns the number of node replacements in the given round.
	PerRound(n, round int) int
	String() string
}

// RateLaw is the paper's churn law: ⌊C·n/ln(n)^K⌋ replacements per round.
// The paper proves its results for K = 1+δ (any fixed δ > 0) and C up to 4.
type RateLaw struct {
	C float64
	K float64
}

// PerRound implements Law.
func (l RateLaw) PerRound(n, _ int) int {
	if n <= 1 {
		return 0
	}
	v := int(l.C * float64(n) / math.Pow(math.Log(float64(n)), l.K))
	if v < 0 {
		v = 0
	}
	if v > n {
		v = n
	}
	return v
}

func (l RateLaw) String() string { return fmt.Sprintf("%.3g·n/log^%.3g n", l.C, l.K) }

// PaperLaw returns the rate law C·n/log^(1+δ) n from Theorems 3 and 4.
func PaperLaw(c, delta float64) RateLaw { return RateLaw{C: c, K: 1 + delta} }

// FixedLaw replaces exactly Count nodes per round.
type FixedLaw struct{ Count int }

// PerRound implements Law.
func (l FixedLaw) PerRound(n, _ int) int {
	if l.Count > n {
		return n
	}
	if l.Count < 0 {
		return 0
	}
	return l.Count
}

func (l FixedLaw) String() string { return fmt.Sprintf("fixed %d/round", l.Count) }

// ZeroLaw disables churn (static network control runs).
type ZeroLaw struct{}

// PerRound implements Law.
func (ZeroLaw) PerRound(int, int) int { return 0 }

func (ZeroLaw) String() string { return "no churn" }

// Strategy selects which slots are replaced.
type Strategy int

// Available strategies. All are oblivious: the choice depends only on the
// adversary's own seed and on the history of its own prior choices.
const (
	// Uniform replaces a uniformly random set of slots.
	Uniform Strategy = iota
	// OldestFirst always replaces the longest-lived nodes. This is the
	// harshest strategy against protocols that accumulate state at
	// long-lived nodes (e.g. committees of survivors).
	OldestFirst
	// YoungestFirst re-replaces the most recently joined nodes, keeping a
	// stable old core; it stresses join-time logic instead of persistence.
	YoungestFirst
	// SweepBurst replaces contiguous slot blocks, sweeping the slot space
	// round-robin; it models correlated regional failures.
	SweepBurst
)

func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case OldestFirst:
		return "oldest-first"
	case YoungestFirst:
		return "youngest-first"
	case SweepBurst:
		return "sweep-burst"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Adversary produces the pre-committed churn schedule batch by batch.
// It is deterministic in (n, seed, strategy, law).
type Adversary struct {
	n        int
	strategy Strategy
	law      Law
	r        *rng.Stream

	// ageQueue is a ring of all n slots ordered by join time, oldest at
	// head. Only maintained for the age-based strategies.
	ageQueue []int32
	head     int
	sweepPos int
	batch    []int // reusable output buffer
}

// NewAdversary creates the adversary for a network of n slots.
func NewAdversary(n int, seed uint64, strategy Strategy, law Law) *Adversary {
	a := &Adversary{
		n:        n,
		strategy: strategy,
		law:      law,
		r:        rng.Derive(seed, 0xadfe),
	}
	if strategy == OldestFirst || strategy == YoungestFirst {
		a.ageQueue = make([]int32, n)
		for i := range a.ageQueue {
			a.ageQueue[i] = int32(i)
		}
		// Slots all join at round 0; randomise the tie-break order so the
		// age-based strategies are not aligned with slot numbering.
		for i := n - 1; i > 0; i-- {
			j := a.r.Intn(i + 1)
			a.ageQueue[i], a.ageQueue[j] = a.ageQueue[j], a.ageQueue[i]
		}
	}
	return a
}

// Batch returns the distinct slot indices to replace in the given round.
// The returned slice is reused across calls; callers must not retain it.
func (a *Adversary) Batch(round int) []int {
	count := a.law.PerRound(a.n, round)
	if count <= 0 {
		return a.batch[:0]
	}
	// Laws are supposed to clamp to n, but Law is a public interface:
	// enforce the bound here so a misbehaving implementation cannot make
	// the batch emit out-of-range (or duplicate) slot indices.
	if count > a.n {
		count = a.n
	}
	if cap(a.batch) < count {
		a.batch = make([]int, count)
	}
	a.batch = a.batch[:count]
	switch a.strategy {
	case Uniform:
		// Reservoir-sample count distinct slots directly into the reused
		// batch buffer.
		if count >= a.n {
			for i := range a.batch {
				a.batch[i] = i
			}
		} else {
			for i := 0; i < count; i++ {
				a.batch[i] = i
			}
			for i := count; i < a.n; i++ {
				if j := a.r.Intn(i + 1); j < count {
					a.batch[j] = i
				}
			}
		}
		a.r.ShuffleInts(a.batch)
	case OldestFirst, YoungestFirst:
		// Oldest-first pops the front and requeues it at the back, where
		// the replaced slots rejoin as the youngest: in a ring of all n
		// slots that only advances the head. Youngest-first reads the
		// back; its replaced slots stay the youngest, so it keeps
		// hammering the same tail while the old core persists.
		start := a.head
		if a.strategy == YoungestFirst {
			start += a.n - count
		} else {
			a.head = (a.head + count) % a.n
		}
		for i := range a.batch {
			a.batch[i] = int(a.ageQueue[(start+i)%a.n])
		}
	case SweepBurst:
		for i := 0; i < count; i++ {
			a.batch[i] = (a.sweepPos + i) % a.n
		}
		a.sweepPos = (a.sweepPos + count) % a.n
	default:
		panic("churn: unknown strategy")
	}
	return a.batch
}
