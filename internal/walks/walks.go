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
//   - The token store has two representations, selected by the one input
//     that decides between them, Params.ForwardCap. With a forwarding
//     cap, tokens live in a columnar store of packed 16-byte two-lane
//     records (src|slot, birth|serial|steps) moved one step per round by
//     a two-phase sharded exchange whose counting-sort gather
//     materializes slot-major buckets (store.go): deferral makes a
//     token's fate depend on its bucket position, so buckets must exist.
//     Without a cap the store is the lazy trajectory evaluator (lazy.go):
//     no per-token state between rounds at all, just a (T+2)-deep ring of
//     per-round inputs, with each birth cohort replayed once, and counted,
//     at its delivery round.
//   - Each token's step is derived by hashing (seed, round, src, birth,
//     serial), not by consuming a shared stream, so the simulation is
//     bit-reproducible at any worker count.
//   - The shard grid is fixed at engine construction (internal/shard,
//     shared with the engine's message exchange), the gather merges
//     source shards in fixed order, and shard slot ranges are contiguous
//     and ascending, so each slot's token order is canonical — deferred
//     tokens first, then arrivals by (source slot, source order): the
//     forwarding cap — the paper's 2h·log n per-round scalability
//     restriction — always applies to the same tokens no matter the
//     parallelism.
package walks

import (
	"math"
	"runtime"

	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
)

// Token is one in-flight random walk. The store keeps tokens as columns
// (store.go); this struct is the assembled view used by Inject,
// AppendTokens, and the reference-model tests.
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
	// Deadline is τ, the rounds within which a walk should complete; a
	// token older than Deadline rounds is dropped and counted overdue.
	// The paper sets τ = m·log n with m chosen so that, w.h.p., the
	// forwarding cap never delays a token past its deadline.
	Deadline int
	// ForwardCap limits tokens forwarded per node per round (the paper's
	// 2h·log n). 0 means unlimited. It also selects the token store: the
	// materialized capped store (store.go) when positive, the lazy
	// trajectory evaluator (lazy.go) otherwise.
	ForwardCap int
	// Lazy makes walks lazy (stay put with probability 1/2). Laziness is
	// the standard guard against the vanishing-probability bipartite draw
	// of the random topology; it roughly doubles the mixing length.
	Lazy bool
}

// DefaultParams returns soup parameters for network size n, following the
// paper's Θ(log n) prescriptions with simulation-calibrated constants
// (natural log, as in the paper).
func DefaultParams(n int) Params {
	ln := math.Log(float64(n))
	walkLen := int(math.Ceil(2 * ln)) // T = 2·ln n; ample for λ ≈ 0.66 expanders
	return Params{
		WalksPerRound: int(math.Ceil(ln)),
		WalkLength:    walkLen,
		Deadline:      3 * walkLen,
		ForwardCap:    0, // unlimited by default; E2 stresses finite caps
		Lazy:          false,
	}
}

// Metrics counts soup events since creation. The capped store counts an
// event in the round it happens. The lazy store counts a walk when it is
// delivered — generation, moves and death or completion together, T-1
// rounds after its birth — so there Generated == Completed + Died after
// every round and a walk still in flight is in no counter.
type Metrics struct {
	Generated int64 // tokens created
	Completed int64 // walks that finished all steps and were sampled
	Died      int64 // tokens lost to churn
	Overdue   int64 // tokens dropped after exceeding Deadline
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

	// shards hold the token store, the per-round sample store, and all
	// exchange staging, one per grid shard (the grid comes from the
	// engine, so soup and engine exchange agree); slotLoc resolves a slot
	// to its (shard, local index) with one load (Grid.LocTable). rowLoc is
	// the capped store's per-round composition of the adjacency with
	// slotLoc (see store.go).
	grid    shard.Grid
	shards  []soupShard
	slotLoc []uint32
	rowLoc  []uint32

	// lz is non-nil iff ForwardCap == 0 (lazy.go): the (T+2)-deep ring of
	// per-round inputs replacing all between-round token state. nil means
	// the capped store.
	lz *lazySoup

	// inj records the Inject calls since the last StepRound, which clears
	// it. Both stores number a slot's next injection from it; the lazy
	// store moves it into the round's ring entry and mints the injected
	// tokens from there at delivery.
	inj []injRec

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
	if p.Deadline < p.WalkLength {
		p.Deadline = p.WalkLength
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
	capped := p.ForwardCap > 0
	for i := range s.shards {
		s.shards[i].init(grid, i, n, p.WalksPerRound, capped)
	}
	if capped {
		s.rowLoc = make([]uint32, n*e.Degree())
	} else {
		s.lz = newLazySoup(e, s)
	}
	// Bridge the soup's counters into the engine's telemetry registry as a
	// collector: the soup keeps its own accumulation and snapshots pull the
	// current totals. The lazy store adds its row of the memory ledger.
	reg := e.Telemetry()
	reg.RegisterCollector(func(emit func(string, telemetry.Kind, int64)) {
		m := s.Metrics()
		emit("dynp2p_soup_generated_total", telemetry.KindCounter, m.Generated)
		emit("dynp2p_soup_completed_total", telemetry.KindCounter, m.Completed)
		emit("dynp2p_soup_died_total", telemetry.KindCounter, m.Died)
		emit("dynp2p_soup_overdue_total", telemetry.KindCounter, m.Overdue)
		emit("dynp2p_soup_moves_total", telemetry.KindCounter, m.Moves)
		emit("dynp2p_soup_deferred_total", telemetry.KindCounter, m.Deferred)
		if s.lz != nil {
			ring, cohort := s.lzMemBytes()
			emit("dynp2p_soup_mem_ring_bytes", telemetry.KindGauge, ring)
			emit("dynp2p_soup_mem_cohort_bytes", telemetry.KindGauge, cohort)
		}
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

// TotalTokens returns the capped store's number of in-flight tokens
// network-wide, a sum over the per-shard store lengths. The lazy store
// holds no tokens to count and panics.
func (s *Soup) TotalTokens() int {
	s.mustHoldTokens("TotalTokens")
	t := 0
	for i := range s.shards {
		t += len(s.shards[i].tok)
	}
	return t
}

// AppendTokens appends slot's in-flight tokens in the capped store, in
// canonical bucket order, to dst and returns it. Used by tests and
// experiment introspection, not by the hot path. The lazy store holds no
// tokens to list and panics.
func (s *Soup) AppendTokens(slot int, dst []Token) []Token {
	s.mustHoldTokens("AppendTokens")
	sh, local := shard.Loc(s.slotLoc[slot])
	ss := &s.shards[sh]
	for _, t := range ss.tok[ss.off[local]:ss.off[local+1]] {
		dst = append(dst, t.token())
	}
	return dst
}

// mustHoldTokens refuses token introspection on the lazy store, which
// would otherwise answer with an empty store's silent zero.
func (s *Soup) mustHoldTokens(query string) {
	if s.lz != nil {
		panic("walks: " + query + " asks for in-flight tokens, and a soup without a ForwardCap (the lazy store) holds none")
	}
}

// Inject starts count extra walks from the given slot this round (on top
// of WalksPerRound). Used by experiments that trace a single batch. A walk
// is identified by (source id, birth round, Serial): the round's fresh
// walks hold serials 0 … WalksPerRound-1, and injected walks continue from
// WalksPerRound upward across repeated calls on one slot until the next
// StepRound. The Serial is a uint16, so Inject clamps count at 65536 −
// WalksPerRound − the walks already injected at slot since the last
// StepRound (a wrapped serial would make two tokens share their step-hash
// identity and walk in lock-step) and returns the number actually injected.
// round is the walks' birth round and should be the round about to run:
// serials only separate walks of one (source, birth round).
func (s *Soup) Inject(e *simnet.Engine, slot, count, round int) int {
	base := s.p.WalksPerRound
	for i := range s.inj {
		if int(s.inj[i].slot) == slot {
			base += int(s.inj[i].count)
		}
	}
	count = min(count, 1<<16-base)
	if count <= 0 {
		return 0
	}
	id := e.IDAt(slot)
	if uint64(id) >= maxSrcID {
		panic("walks: node id exceeds the packed staging range")
	}
	s.inj = append(s.inj, injRec{
		slot: int32(slot), count: int32(count), id: id, birth: int32(round), base: uint16(base),
	})
	// The lazy store mints and counts the walks when their cohort is
	// delivered; the capped store holds them from now.
	if s.lz == nil {
		sh, local := shard.Loc(s.slotLoc[slot])
		s.shards[sh].insert(local, count, id, int32(round), uint16(base), uint16(s.p.WalkLength))
		s.m.Generated += int64(count)
	}
	return count
}

// stepHash derives the per-token per-round randomness. Mixing is
// splitmix64-flavoured; the output decides the neighbour port and the lazy
// coin, independent of any iteration order. It is split in two so a loop
// stepping many tokens through one round computes stepSeed once.
func stepHash(seed uint64, round int, src simnet.NodeID, birth int32, serial uint16) uint64 {
	return stepMix(stepSeed(seed, round), src, birth, serial)
}

func stepSeed(seed uint64, round int) uint64 {
	return seed + 0x9e3779b97f4a7c15*uint64(round+1)
}

func stepMix(x uint64, src simnet.NodeID, birth int32, serial uint16) uint64 {
	x ^= uint64(src) * 0xd1342543de82ef95
	x ^= uint64(uint32(birth))<<32 | uint64(serial)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StepRound implements simnet.RoundHook. Semantics mirror the model's
// order of operations — churn already happened (tokens at churned slots
// die), every node generates new walks, then every token takes one
// synchronous step — but on the capped store all three phases are fused
// into the single sharded scatter pass (store.go): the per-slot scatter
// kills tokens at replaced slots, emits the slot's fresh tokens after its
// stored ones, and steps everything in one sweep, so no serial O(n)
// prelude remains. The lazy store (lazy.go) goes further: it records the
// round's inputs and replays, and counts, only the one cohort whose
// delivery falls due this round.
func (s *Soup) StepRound(e *simnet.Engine, round int) {
	if s.lz != nil {
		s.stepLazy(e, round)
		return
	}
	s.scatter(e, round)
	s.gather()
	for i := range s.shards {
		s.m.add(&s.shards[i].tally)
	}
	s.inj = s.inj[:0]
}
