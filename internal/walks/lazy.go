package walks

// The soup is a lazy trajectory evaluator. No token is ever deferred, so
// a walk's entire T-step trajectory is a pure function of its identity
// (src, birth, serial), the evolving topology, and the churn record: no
// per-round token exchange is needed at all, and the protocol is owed
// exactly one thing from a walk — its endpoint after T rounds (the Soup
// Theorem). So the soup holds no token between rounds. StepRound records
// only the round's inputs in a (T+2)-deep ring — topology change, occupant
// changes and the set of replaced slots — and replays one birth cohort's
// full trajectory at its delivery round birth+T-1, with per-step death
// checks against the ring. A cohort is exactly the WalksPerRound walks
// every slot mints in one round; its tokens exist only inside its
// delivery, in one buffer per shard that the next delivery reuses.
//
// The counters follow the tokens: a cohort's generation, moves, deaths and
// completions are booked in the round it is delivered, so Metrics() is the
// plain accumulator over delivered cohorts and Generated == Completed +
// Died after every round. A walk still in flight is in none of them, and
// there is no in-flight state to ask for.
//
// The ring is DELTA-ENCODED (DESIGN.md §9). A ring entry does not hold
// the round's full n·d adjacency snapshot; it holds the round's port
// rewires, drained from the graph's change journal — O(churn·d) entries
// per round under incremental topologies (self-healing, static), which
// is what makes n ≥ 2²⁰ rings fit in memory. Rounds whose topology was
// bulk-rewritten (the Rerandomize oracle, an over-limit churn burst) are
// recorded as full snapshots instead, so the oracle modes degrade to the
// old cost rather than breaking. Two materialized rows navigate the ring,
// forward only:
//
//   - tailRow/tailIds: the adjacency and the occupant ids at the birth
//     round of the cohort being delivered, advanced one round per delivery
//     (the row aliasing a snapshot entry outright when one is on file).
//     NewSoup anchors them on the engine as built, at the round before
//     the first one StepRound records, so no round is a first round.
//   - repRow: the replay scratch row, copied from the tail row and stepped
//     through the cohort's T rounds by applying each round's deltas.
//
// Replay is round-major at every worker count: in one crew phase all
// shards step a cohort through round r against the one materialized row,
// and the caller then advances the row to r+1 serially. A phase runs over
// replay LANES (lzLane): each claims shards off a cursor and writes only
// that shard's cohort buffer, sample staging and tallies, so the kernel
// shares no written cache line between cores.
// Before it steps a round, each lane streams the round's row into its own
// cache (warmRow), so the tokens' random row loads hit warm lines; every
// lane pays for the whole row.
//
// A cohort's replay reads nothing any other cohort produced: a walk's
// identity is (source id, birth round, index in its batch) — ids are never
// reused, so that is unique with no counting — which is what lets a cohort
// sit unmaterialized until its delivery round.

import (
	"math"
	"math/bits"
	"unsafe"

	"dynp2p/internal/graph"
	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
)

// replayTok is one live token of the cohort being delivered: its step
// key, computed once at creation, its current slot, and its index in the
// shard's creation order, from which the final round resolves the source
// (Soup.tailIds[lo + idx/WalksPerRound]). 16 bytes, updated in place —
// replay is a single sequential stream per shard.
type replayTok struct {
	key uint64 // stepKey(src, birth, serial)
	pos int32  // slot the token occupies after the last replayed round
	idx uint32 // (slot-lo)·WalksPerRound + serial
}

// next is the Go loop's step core — keep in sync with Reference.StepRound
// (reference.go) and with stepCohortAVX512 (step_amd64.s), which does the
// same eight tokens at a time: one hash over the round's stepSeed x, a
// port drawn from it as the high word of hash·d, and one load of the
// round's adjacency row.
func (t replayTok) next(x uint64, row []int32, d int) int32 {
	port, _ := bits.Mul64(stepFinish(x^t.key), uint64(d))
	return row[int(t.pos)*d+int(port)]
}

// idDelta records one occupant change: slot's occupant became id in the
// entry's round. Applied forward in ring order these transform one
// round's id table into the next — churn is the only occupant writer.
type idDelta struct {
	slot int32
	id   simnet.NodeID
}

// lazyRound is one ring entry of recorded round inputs: the round's
// adjacency TRANSITION (deltas from the previous round's row, or a full
// snapshot when the interval was disrupted) and the round's occupant
// changes. The occupant changes are kept twice: as the list that steps
// the id table forward, and as the bitset a replay tests a token's slot
// against — exact for this round even when the slot churns again inside
// the window, which the engine's latest-occupancy record is not.
type lazyRound struct {
	round     int32             // validity tag; -1 = empty
	disrupted bool              // snap holds the round's full row; deltas void
	deltas    []graph.PortDelta // row(round-1) → row(round), when !disrupted
	snap      []int32           // full n·d row, allocated on first disruption
	idDeltas  []idDelta         // occupant changes in this round (churned slots)
	death     []uint64          // the same slots as a bitset: bit s%64 of word s/64
}

// entry returns the ring entry for round r, panicking if the ring no
// longer (or does not yet) cover it — every caller's round arithmetic is
// bounded by depth, so a miss is a bug, not a condition.
func (s *Soup) entry(r int) *lazyRound {
	e := &s.rounds[r%s.depth]
	if int(e.round) != r {
		panic("walks: lazy ring does not cover the requested round")
	}
	return e
}

// rowAt returns the adjacency row of round r given prev, the row of round
// r-1 (the tail row or an earlier rowAt result). Snapshot entries are
// returned aliased (zero copy — the Rerandomize oracle pays nothing it
// didn't pay with full-row rings); delta entries step the repRow scratch
// forward, copying prev into it first when prev is not repRow itself. The
// returned slice is read-only for callers and valid until the next
// rowAt/advanceTail call.
func (s *Soup) rowAt(prev []int32, r int) []int32 {
	e := s.entry(r)
	if e.disrupted {
		return e.snap
	}
	if &prev[0] != &s.repRow[0] {
		copy(s.repRow, prev)
	}
	graph.ApplyDeltas(s.repRow, e.deltas)
	return s.repRow
}

// advanceTail moves the tail cursors forward to round to, applying each
// crossed round's deltas (or adopting its snapshot by reference). Called
// when cohort to falls due: no later delivery reads an older round.
func (s *Soup) advanceTail(to int) {
	for r := s.tailRound + 1; r <= to; r++ {
		e := s.entry(r)
		if e.disrupted {
			s.tailRow, s.tailOwn = e.snap, false
		} else {
			if !s.tailOwn {
				copy(s.tailBuf, s.tailRow)
				s.tailRow, s.tailOwn = s.tailBuf, true
			}
			graph.ApplyDeltas(s.tailRow, e.deltas)
		}
		for _, ch := range e.idDeltas {
			s.tailIds[ch.slot] = ch.id
		}
		s.tailRound = r
	}
}

// StepRound implements simnet.RoundHook: it records the round's inputs
// (journal drain, id deltas) and, once a cohort falls due, moves the tail
// to its birth round and delivers it (lzDeliver).
func (s *Soup) StepRound(e *simnet.Engine, round int) {
	rr := &s.rounds[round%s.depth]
	rr.round = int32(round)
	// Adjacency transition: the drained change journal when the interval
	// was incremental, a full snapshot when it was disrupted (bulk
	// rewrite or over-limit churn).
	g := e.Graph()
	deltas, disrupted := g.DrainJournal()
	if disrupted {
		rr.disrupted = true
		if rr.snap == nil {
			rr.snap = make([]int32, s.n*s.d)
		}
		copy(rr.snap, g.Adjacency())
	} else {
		rr.disrupted = false
		rr.deltas = append(rr.deltas[:0], deltas...)
	}
	// Occupant changes: the churned slots' fresh ids, and their bits. The
	// ring slot's previous tenant's list says which words to clear first.
	for _, ch := range rr.idDeltas {
		rr.death[uint32(ch.slot)>>6] = 0
	}
	rr.idDeltas = rr.idDeltas[:0]
	for _, slot := range e.ChurnedThisRound() {
		rr.idDeltas = append(rr.idDeltas, idDelta{slot: int32(slot), id: e.IDAt(slot)})
		rr.death[uint(slot)>>6] |= 1 << (uint(slot) & 63)
	}
	for i := range s.shards {
		ss := &s.shards[i]
		for dsh := range ss.outSmp {
			ss.outSmp[dsh] = ss.outSmp[dsh][:0]
		}
	}
	// Cohort c falls due. Until the first delivery the tail stands at the
	// round before the first recorded one, and a c no later than it names
	// a round never recorded.
	if c := round - s.T + 1; c > s.tailRound {
		s.advanceTail(c)
		s.lzDeliver(c)
	}
}

// lzDeliver replays cohort b through its T rounds from the tail (which
// stands at round b), publishes its samples and folds its tallies into the
// soup metrics. Each replayed round is one crew phase over the replay
// lanes (lzLane), the sample gather one more over the shards; between
// phases the caller re-arms the shard cursor and moves the row on.
func (s *Soup) lzDeliver(b int) {
	s.advB, s.advRow = b, s.tailRow
	for s.advR = b; s.advR < b+s.T; s.advR++ {
		if s.advR > b {
			s.advRow = s.rowAt(s.advRow, s.advR)
		}
		s.cursor.Store(0)
		s.crew.Do(s.lanes, s.lane)
	}
	// The final round staged the cohort's samples in outSmp.
	s.crew.Do(len(s.shards), s.gather)
	for i := range s.shards {
		s.m.add(&s.shards[i].tally)
		s.shards[i].tally = Metrics{}
	}
}

// lzLane is one replay lane's share of the round in progress: it claims
// shards off the cursor and steps them through round advR against the one
// materialized adjacency row. In the birth round a lane creates a shard's
// cohort just before stepping it: the lane owns the shard's cohort buffer
// for the whole round.
func (s *Soup) lzLane(int) {
	b, r, row := s.advB, s.advR, s.advRow
	s.warmRow(row)
	for sh := s.cursor.Add(1) - 1; sh < int64(len(s.shards)); sh = s.cursor.Add(1) - 1 {
		if r == b {
			s.lzCreateShard(&s.shards[sh])
		}
		s.lzReplayShard(&s.shards[sh], r, r == b+s.T-1, row)
	}
}

// warmRow reads row front to back, one load per 64-byte line, into the
// calling lane's cache. Under the oracle topology a replay round's row is
// a ring snapshot written T rounds earlier and long evicted; streamed, it
// is a pass the hardware prefetcher runs ahead of, where the token loop's
// random loads would miss on nearly every line. The sum keeps the loads
// live.
func (s *Soup) warmRow(row []int32) {
	const lineInts = 64 / 4
	var sum int32
	for i := 0; i < len(row); i += lineInts {
		sum += row[i]
	}
	s.warmSink.Store(sum)
}

// lzReplaced tests slot in a replacement bitset (nil = no churn).
func lzReplaced(death []uint64, slot int32) bool {
	return death != nil && death[uint32(slot)>>6]>>(uint32(slot)&63)&1 != 0
}

// lzCreateShard materializes the delivering cohort's tokens born in ss's
// slots into the shard's cohort buffer: one fresh batch per slot with
// serials 0 … WalksPerRound-1 — identical semantics to the Reference's
// generation. The tail stands at the cohort's birth round, so tailIds are
// the occupants.
func (s *Soup) lzCreateShard(ss *soupShard) {
	ids := s.tailIds
	birth := int32(s.advB)
	toks := ss.cohort[:0]
	wpr := s.p.WalksPerRound
	for slot := ss.lo; slot < ss.hi; slot++ {
		id := ids[slot]
		if uint64(id) >= maxSrcID {
			panic("walks: node id exceeds the packed staging range")
		}
		for k := 0; k < wpr; k++ {
			toks = append(toks, replayTok{
				key: stepKey(id, birth, uint16(k)), pos: int32(slot), idx: uint32(len(toks))})
		}
	}
	ss.cohort = toks
	ss.tally.Generated += int64(ss.hi-ss.lo) * int64(wpr)
}

// lzReplayShard advances the delivering cohort's tokens in ss by the
// single round r against the materialized round-r adjacency, which
// warmRow has already put in this lane's cache. Every round, the final one
// too, is the one kernel stepCohort, and the counters are booked from
// lengths: every token a round keeps moved, every other one died. The
// final round then stages the survivors' samples, each source resolved
// from the token's creation index. It writes only ss's own cohort buffer,
// sample staging and tallies.
func (s *Soup) lzReplayShard(ss *soupShard, r int, final bool, row []int32) {
	ring := &s.rounds[r%s.depth]
	toks := ss.cohort
	if len(toks) == 0 {
		return
	}
	var death []uint64
	// At the cohort's birth round every token is freshly minted at a live
	// slot, so only later rounds check for churn.
	if r > s.advB && len(ring.idDeltas) > 0 {
		death = ring.death
	}
	live := stepCohort(toks, death, row, s.d, stepSeed(s.seed, r))
	ss.tally.Moves += int64(live)
	ss.tally.Died += int64(len(toks) - live)
	if !final {
		ss.cohort = toks[:live]
		return
	}
	ids := s.tailIds[ss.lo:ss.hi]
	wpr := uint32(s.p.WalksPerRound)
	slotLoc := s.slotLoc
	for _, t := range toks[:live] {
		loc := slotLoc[t.pos]
		dsh := loc >> shard.LocalBits
		ss.outSmp[dsh] = append(ss.outSmp[dsh], stagedSmp{
			loc: uint64(ids[t.idx/wpr])<<shard.LocalBits | uint64(loc&localMask)})
	}
	ss.cohort = toks[:0]
	ss.tally.Completed += int64(live)
}

// stepCohort is the replay's one step kernel: it steps toks through one
// round — death check, one step, in-place compaction — and returns how
// many are still live. On an AVX-512 host stepCohortAVX512 steps the
// leading multiple of eight tokens eight at a time and the Go loop steps
// the rest; elsewhere the Go loop is the whole kernel. Both give every
// token the same slot. It is kept out of line so the loop's index, row and
// cursor stay in registers.
//
//go:noinline
func stepCohort(toks []replayTok, death []uint64, row []int32, d int, x uint64) (live int) {
	done := 0
	if useAVX512 && uint64(d) <= math.MaxUint32 {
		done, live = stepCohortAVX512(toks, death, row, d, x)
	}
	for _, t := range toks[done:] {
		if lzReplaced(death, t.pos) {
			continue
		}
		t.pos = t.next(x, row, d)
		toks[live] = t
		live++
	}
	return live
}

// Kernel names the step kernel this host runs: "avx512x8" when stepCohort
// steps eight tokens at a time, "go" when the Go loop steps them all. It
// is a host property, not a simulation event: every trajectory is the
// same under both.
func Kernel() string {
	if useAVX512 {
		return "avx512x8"
	}
	return "go"
}

// lzMemBytes is the soup's row of the memory ledger: the ring (tail and
// replay rows, snapshots, delta and id-delta lists, death bitsets), the
// shards' cohort buffers and their samples (staging, store and offset
// index), each capacity times element size, read only when a snapshot is
// taken.
func (s *Soup) lzMemBytes() (ring, cohort, samples int64) {
	const (
		idSize  = int(unsafe.Sizeof(simnet.NodeID(0)))
		pdSize  = int(unsafe.Sizeof(graph.PortDelta{}))
		idDSize = int(unsafe.Sizeof(idDelta{}))
		tokSize = int(unsafe.Sizeof(replayTok{}))
		stgSize = int(unsafe.Sizeof(stagedSmp{}))
		smpSize = int(unsafe.Sizeof(Sample{}))
	)
	b := (cap(s.tailBuf)+cap(s.repRow))*4 + cap(s.tailIds)*idSize
	for i := range s.rounds {
		e := &s.rounds[i]
		b += cap(e.snap)*4 + cap(e.deltas)*pdSize + cap(e.idDeltas)*idDSize + cap(e.death)*8
	}
	c, m := 0, 0
	for i := range s.shards {
		ss := &s.shards[i]
		c += cap(ss.cohort) * tokSize
		m += ss.smp.Cap()*smpSize + (ss.hi-ss.lo+1)*4 // and the run offsets
		for _, out := range ss.outSmp {
			m += cap(out) * stgSize
		}
	}
	return int64(b), int64(c), int64(m)
}
