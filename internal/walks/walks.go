// Package walks implements the paper's central technical tool (§3): the
// "soup" of random walks. Every node starts α·log n walk tokens per round;
// each token performs T = Θ(log n) steps over the evolving expander and is
// then delivered to the node it lands on, which records the walk's *source*
// as a near-uniform sample of the network (the Soup Theorem, Thm 1).
//
// Churn interacts with the soup exactly as in the paper: a token currently
// carried by a node that is churned out dies with it, and the Soup Theorem
// is about the walks that survive.
//
// Implementation notes (the HPC parts):
//
//   - The soup is a lazy trajectory evaluator (lazy.go): it keeps no
//     per-token state between rounds, just a (T+2)-deep ring of per-round
//     inputs, and replays each birth cohort once, and counts it, at its
//     delivery round.
//   - Each token's step is derived by hashing (seed, round, src, birth,
//     serial), not by consuming a shared stream, so the simulation is
//     bit-reproducible at any worker count.
//   - Every replay round runs one step kernel, stepCohort. On a host with
//     AVX-512 (checked once, from CPUID) it steps eight tokens at a time
//     (step_amd64.s) and a Go loop steps the rest; elsewhere the Go loop
//     steps them all. Both give every token the same slot, so the kernel
//     is a host property that no result depends on (Kernel).
//   - The shard grid is fixed at engine construction (internal/shard,
//     shared with the engine's message exchange), and the sample gather
//     merges source shards in fixed order, so each slot's sample order is
//     canonical no matter the parallelism.
//   - Reference (reference.go) is the serial per-slot-bucket model the soup
//     is pinned to, and the model of the paper's per-node forwarding cap
//     and walk deadline (Lemma 1) and of traced extra walks (Inject),
//     which experiments run on it.
package walks

import (
	"math"
	"runtime"

	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
)

// Token is one in-flight random walk of the Reference model; the soup
// holds no tokens between rounds.
type Token struct {
	Src    simnet.NodeID // walk origin (its id at generation time)
	Birth  int32         // round the walk started
	Serial uint16        // distinguishes same-source same-round walks
	Steps  uint16        // steps remaining
}

// Sample is a completed walk delivered to its endpoint: the holder may use
// Src as a (near-)uniform sample of the network (Soup Theorem).
type Sample struct {
	Src   simnet.NodeID
	Birth int32
}

// Params configures the soup.
type Params struct {
	// WalksPerRound is the number of walks each node starts per round
	// (the paper's α·log n).
	WalksPerRound int
	// WalkLength is T, the number of steps each walk takes (Θ(log n)).
	WalkLength int
}

// DefaultParams returns soup parameters for network size n, following the
// paper's Θ(log n) prescriptions with simulation-calibrated constants
// (natural log, as in the paper).
func DefaultParams(n int) Params {
	ln := math.Log(float64(n))
	return Params{
		WalksPerRound: int(math.Ceil(ln)),
		WalkLength:    int(math.Ceil(2 * ln)), // T = 2·ln n; ample for λ ≈ 0.66 expanders
	}
}

// Metrics counts walk events since creation. The soup counts a walk when
// it is delivered — generation, moves and death or completion together,
// T-1 rounds after its birth — so Generated == Completed + Died after
// every round and a walk still in flight is in no counter. The Reference
// counts an event in the round it happens; only it has a forwarding cap
// and a deadline, so Overdue and Deferred are zero on the soup.
type Metrics struct {
	Generated int64 // tokens created
	Completed int64 // walks that finished all steps and were sampled
	Died      int64 // tokens lost to churn
	Overdue   int64 // tokens dropped after exceeding the deadline
	Moves     int64 // total token-steps executed
	Deferred  int64 // token-rounds spent waiting behind the forward cap
}

func (m *Metrics) add(o *Metrics) {
	m.Generated += o.Generated
	m.Completed += o.Completed
	m.Died += o.Died
	m.Overdue += o.Overdue
	m.Moves += o.Moves
	m.Deferred += o.Deferred
}

// Soup is the walk engine. It implements simnet.RoundHook; register it on
// the engine and read Samples(slot) from protocol handlers.
type Soup struct {
	p    Params
	n    int
	seed uint64
	m    Metrics

	// shards hold the per-round sample store, the cohort buffers and the
	// sample staging, one per grid shard (the grid comes from the engine,
	// so soup and engine exchange agree); slotLoc resolves a slot to its
	// (shard, local index) with one load (Grid.LocTable).
	grid    shard.Grid
	shards  []soupShard
	slotLoc []uint32

	// lz is the (T+2)-deep ring of per-round inputs that replaces all
	// between-round token state (lazy.go).
	lz *lazySoup

	workers int
}

// NewSoup creates a soup for the given engine. workers <= 0 means
// GOMAXPROCS.
func NewSoup(e *simnet.Engine, p Params, workers int) *Soup {
	if p.WalkLength <= 0 {
		panic("walks: WalkLength must be positive")
	}
	// A slot's fresh walks carry serials 0 … WalksPerRound-1 in a uint16.
	if p.WalksPerRound < 0 || p.WalksPerRound > math.MaxUint16 {
		panic("walks: WalksPerRound must be in [0, 65535]")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := e.N()
	grid := e.Grid()
	s := &Soup{
		p:       p,
		n:       n,
		seed:    e.Config().ProtocolSeed,
		grid:    grid,
		shards:  make([]soupShard, grid.Count()),
		slotLoc: grid.LocTable(n),
		workers: workers,
	}
	for i := range s.shards {
		s.shards[i].init(grid, i, n, p.WalksPerRound)
	}
	s.lz = newLazySoup(e, s)
	// Bridge the soup's counters into the engine's telemetry registry as a
	// collector: the soup keeps its own accumulation and snapshots pull the
	// current totals, with the store's row of the memory ledger.
	reg := e.Telemetry()
	reg.RegisterCollector(func(emit func(string, telemetry.Kind, int64)) {
		m := s.Metrics()
		emit("dynp2p_soup_generated_total", telemetry.KindCounter, m.Generated)
		emit("dynp2p_soup_completed_total", telemetry.KindCounter, m.Completed)
		emit("dynp2p_soup_died_total", telemetry.KindCounter, m.Died)
		emit("dynp2p_soup_moves_total", telemetry.KindCounter, m.Moves)
		ring, cohort, samples := s.lzMemBytes()
		emit("dynp2p_soup_mem_ring_bytes", telemetry.KindGauge, ring)
		emit("dynp2p_soup_mem_cohort_bytes", telemetry.KindGauge, cohort)
		emit("dynp2p_soup_mem_samples_bytes", telemetry.KindGauge, samples)
	})
	return s
}

// Params returns the soup parameters.
func (s *Soup) Params() Params { return s.p }

// Metrics returns a snapshot of the counters.
func (s *Soup) Metrics() Metrics { return s.m }

// Samples returns the walks that completed at slot this round: a view into
// the per-shard sample store, valid until the next StepRound; do not
// retain or modify.
func (s *Soup) Samples(slot int) []Sample {
	sh, local := shard.Loc(s.slotLoc[slot])
	ss := &s.shards[sh]
	return ss.smp[ss.smpOff[local]:ss.smpOff[local+1]]
}

// stepHash derives the per-token per-round randomness. Mixing is
// splitmix64-flavoured; the output decides the neighbour port, independent
// of any iteration order. It is split so a loop stepping many tokens
// through one round computes stepSeed once, and a token that steps many
// rounds computes its stepKey once: stepMix(x, …) == stepFinish(x ^
// stepKey(…)), since the key is XORed in whole.
func stepHash(seed uint64, round int, src simnet.NodeID, birth int32, serial uint16) uint64 {
	return stepMix(stepSeed(seed, round), src, birth, serial)
}

func stepSeed(seed uint64, round int) uint64 {
	return seed + 0x9e3779b97f4a7c15*uint64(round+1)
}

func stepMix(x uint64, src simnet.NodeID, birth int32, serial uint16) uint64 {
	return stepFinish(x ^ stepKey(src, birth, serial))
}

// stepKey is the round-invariant part of a walk's step hash: its identity.
func stepKey(src simnet.NodeID, birth int32, serial uint16) uint64 {
	return uint64(src)*0xd1342543de82ef95 ^ (uint64(uint32(birth))<<32 | uint64(serial))
}

// stepFinish is the splitmix64 finaliser over a round seed XOR a step key.
func stepFinish(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
