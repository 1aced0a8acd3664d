// Package protocol implements the paper's storage-and-search protocol
// stack on top of the simulation engine and the random-walk soup:
//
//   - committees (Algorithm 1): Θ(log n)-node cliques of near-random nodes
//     that re-elect themselves from fresh walk samples every epoch so they
//     survive churn for a long time (Theorem 2);
//   - landmark trees (Algorithm 2): committee-rooted sampling trees that
//     advertise a committee to Θ(√n) near-random nodes (Lemma 8);
//   - persistent storage (Algorithm 3): an item is stored at the members
//     of its committee and advertised by storage landmarks (Theorem 3);
//   - retrieval (Algorithm 4): a searcher builds a search committee and
//     search landmarks; the Ω(√n)×Ω(√n) landmark rendezvous through walk
//     samples finds the item in O(log n) rounds (Theorem 4);
//   - erasure-coded storage (§4.4): committee members hold IDA pieces
//     instead of full copies; the epoch leader reconstructs and
//     re-disperses at every handover.
//
// Every protocol interaction is an id-addressed simnet message, so the
// model's failure semantics (messages to churned-out nodes vanish) apply
// to every step, exactly as in the paper.
package protocol

import (
	"math"
)

// Params configures the protocol stack. Start from DefaultParams: only
// CacheTTL and CacheSeedRate have a zero value that selects a default,
// which NewHandler resolves into Handler.P, and NewHandler panics on what
// validate rejects.
type Params struct {
	// CommitteeSize is the paper's h·log n: members per committee and
	// (in replication mode) copies per item.
	CommitteeSize int
	// Period is the committee maintenance period (the paper's 2τ): a new
	// epoch — count exchange, leader election, handover — runs every
	// Period rounds.
	Period int
	// Tau is the paper's τ: landmark trees are rebuilt every Tau rounds
	// (Algorithm 2), and the landmark and search lifetimes are multiples
	// of it (LandmarkTTL, SearchTTL).
	Tau int
	// TreeDepth is µ from Algorithm 2 equation (4): landmark trees grow
	// to this depth with fanout TreeFanout.
	TreeDepth int
	// IDA enables erasure-coded storage (§4.4) with the given
	// reconstruction threshold K; the number of pieces L equals
	// CommitteeSize. K = 0 selects plain replication.
	IDAThreshold int
	// CacheCapacity is the number of hot items each node may cache for
	// walk-seeded replication (DESIGN.md §10). 0 disables caching.
	CacheCapacity int
	// CacheTTL is a cached entry's lifetime in rounds; 0 selects
	// 2·LandmarkTTL (4τ).
	CacheTTL int
	// CacheSeedRate is the probability that an eligible walk sample
	// receives a seeded replica when a node completes or serves a
	// retrieval; 0 selects 0.5.
	CacheSeedRate float64
}

// Paper quantities no experiment, scenario or workload varies.
const (
	// SampleWindow is how many rounds at the start of an epoch members
	// record walk samples before exchanging counts. The paper records one
	// round (its α is astronomically large); small networks need a few
	// rounds to gather committee-size many samples.
	SampleWindow = 3
	// FallbackCandidates is the number of ranked leader candidates that
	// may attempt the handover if the primary is churned out mid-epoch
	// (the paper's footnote-†† resilience mechanism).
	FallbackCandidates = 3
	// FallbackSpacing is the number of rounds a candidate waits for
	// evidence of the previous candidate's handover before acting.
	FallbackSpacing = 2
	// TreeFanout is the number of children per tree node (2 in the paper).
	TreeFanout = 2
	// InviteFactor over-provisions committee invitations: a creator or
	// epoch leader invites InviteFactor*CommitteeSize sample sources.
	// Walk samples are T rounds old, so under churn a fraction of the
	// invitees is already gone; over-inviting keeps the realised
	// committee near CommitteeSize. (Still Θ(log n) invitations; the
	// paper's asymptotics hide this constant inside Lemma 7.)
	InviteFactor = 1.5
)

// LandmarkTTL is how long a node stays a landmark after its last
// refresh: the paper's 2τ.
func (p Params) LandmarkTTL() int { return 2 * p.Tau }

// SearchTTL bounds a retrieval operation: the search committee and the
// searcher's state dissolve after 6τ rounds.
func (p Params) SearchTTL() int { return 6 * p.Tau }

// SampleBuffer is the capacity of each node's ring of recent walk sample
// sources: four committees' worth.
func (p Params) SampleBuffer() int { return 4 * p.CommitteeSize }

// DefaultParams derives protocol parameters for network size n from the
// paper's Θ(log n) prescriptions (natural log, as in the paper) with
// simulation-calibrated constants. walkLen is the soup's walk length T
// (the dynamic mixing time τ is proportional to it).
func DefaultParams(n, walkLen int) Params {
	ln := math.Log(float64(n))
	size := int(math.Ceil(2.5 * ln))
	p := Params{
		CommitteeSize: size,
		Period:        2 * walkLen,
		Tau:           walkLen,
		TreeDepth:     DefaultTreeDepth(n, size),
	}
	// 13 rounds: in either storage mode every candidate's turn falls inside
	// the epoch (the last IDA turn, one round after replication's, is at
	// phase SampleWindow+2+(FallbackCandidates-1)·FallbackSpacing = 9).
	if min := SampleWindow + 1 + FallbackCandidates*FallbackSpacing + 3; p.Period < min {
		p.Period = min
	}
	return p
}

// DefaultTreeDepth targets a landmark population of about 2√n total: each
// of the committeeSize trees contributes ≈ 2^depth leaves-and-internals.
// Lemma 8's exact equation (4) is asymptotic — its correction factors
// (1 − 1/log^{(k−1)/2} n) only approach 1 for astronomically large n — so
// simulations use this calibrated form and E6 verifies the resulting
// √n ≤ |M_I| ≤ O(n^{1/2+δ}·log n) band directly.
func DefaultTreeDepth(n, committeeSize int) int {
	if committeeSize < 1 {
		committeeSize = 1
	}
	target := 2 * math.Sqrt(float64(n)) / float64(committeeSize)
	depth := int(math.Ceil(math.Log2(target)))
	if depth < 1 {
		depth = 1
	}
	// Lemma 8's upper bound caps the depth at (1/2+δ)·log₂ n.
	if cap := int(math.Ceil(0.75 * math.Log2(float64(n)))); depth > cap {
		depth = cap
	}
	return depth
}

// validate panics on nonsensical parameter combinations.
func (p Params) validate() {
	switch {
	case p.CommitteeSize < 1:
		panic("protocol: CommitteeSize must be >= 1")
	case p.Period < SampleWindow+2:
		panic("protocol: Period too short for the epoch phases")
	case p.IDAThreshold > 0 && p.Period < SampleWindow+3:
		panic("protocol: Period too short for an IDA committee's piece round and handover")
	case p.Tau < 1:
		panic("protocol: Tau must be >= 1")
	case p.TreeDepth < 0 || p.TreeDepth > 255:
		panic("protocol: TreeDepth must be in [0, 255]")
	case p.IDAThreshold < 0 || p.IDAThreshold > p.CommitteeSize:
		panic("protocol: IDAThreshold must be in [0, CommitteeSize]")
	case p.CacheCapacity < 0:
		panic("protocol: negative CacheCapacity")
	case p.CacheTTL < 0:
		panic("protocol: negative CacheTTL")
	case p.CacheSeedRate < 0 || p.CacheSeedRate > 1:
		panic("protocol: CacheSeedRate must be in [0, 1]")
	}
}
