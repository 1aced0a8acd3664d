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
//   - repRow: the replay scratch row, copied from the tail row and stepped
//     through the cohort's T rounds by applying each round's deltas.
//
// Replay is round-major at every worker count: all shards step a cohort
// through round r against the one materialized row, then a barrier
// advances the row to r+1 (its last-arriver callback applies the deltas
// serially). The workers are replay LANES (lzLane): each claims shards off
// a cursor and writes only that shard's cohort buffer, sample staging and
// tallies, so the kernel shares no written cache line between cores.
// Before it steps a round, each lane streams the round's row into its own
// cache (warmRow), so the tokens' random row loads hit warm lines; every
// lane pays for the whole row.
//
// A cohort's replay reads nothing any other cohort produced: a walk's
// identity is (source id, birth round, index in its batch) — ids are never
// reused, so that is unique with no counting — which is what lets a cohort
// sit unmaterialized until its delivery round.

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"dynp2p/internal/graph"
	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
)

// replayTok is one live token of the cohort being delivered: the
// step-hash identity (its birth round is the cohort's, lazySoup.advB) plus
// the current slot. 16 bytes, updated in place — replay is a single
// sequential stream per shard.
type replayTok struct {
	idser uint64 // src<<16 | serial
	pos   int32  // slot the token occupies after the last replayed round
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

// lazySoup is the soup-wide ring state hanging off Soup.lz.
type lazySoup struct {
	T     int // WalkLength: trajectory length and delivery offset
	depth int // ring depth, T+2: covers every input a replay can need
	d     int // topology degree

	rounds []lazyRound

	// The tail: adjacency and occupant ids at tailRound, the oldest round a
	// future delivery can need — the first recorded round until the first
	// delivery, the delivering cohort's birth round from then on. -1 before
	// any round is recorded.
	tailRound int
	tailRow   []int32 // row(tailRound); aliases a ring snap when tailOwn is false
	tailOwn   bool
	tailBuf   []int32 // tailRow's owned backing store
	tailIds   []simnet.NodeID
	repRow    []int32 // replay scratch row, stepped through the ring by deltas

	// Replay lanes (lzLane), all built once so a delivery allocates
	// nothing. Lane 0 runs on the caller; lane l >= 1 runs spawn[l-1]. The
	// lanes also publish what Samples() serves: the sample gather is their
	// last phase.
	spawn    []func()
	wg       sync.WaitGroup
	bar      *shard.Barrier // the lanes' round barrier; lzEndRound is its callback
	cursor   atomic.Int64   // next unclaimed shard of the phase in progress
	warmSink atomic.Int32   // warmRow's sum

	// The delivery in progress, written by lzDeliver before the lanes start
	// and by lzEndRound between rounds: cohort advB replays round advR
	// against advRow.
	advB, advR int
	advRow     []int32
}

// newLazySoup builds the ring. Cursor rows, per-round tables and the
// shards' cohort buffers are allocated up front; per-round delta lists and
// snapshot fallbacks grow on demand (a steady incremental topology never
// allocates a snapshot beyond the first round's).
func newLazySoup(e *simnet.Engine, s *Soup) *lazySoup {
	T := s.p.WalkLength
	depth := T + 2
	n, d := s.n, e.Degree()
	lz := &lazySoup{
		T: T, depth: depth, d: d,
		tailRound: -1,
		rounds:    make([]lazyRound, depth),
		tailBuf:   make([]int32, n*d),
		repRow:    make([]int32, n*d),
		tailIds:   make([]simnet.NodeID, 0, n),
	}
	for i := range lz.rounds {
		lz.rounds[i].round = -1
		lz.rounds[i].death = make([]uint64, (n+63)/64)
	}
	lanes := min(s.workers, len(s.shards))
	lz.bar = shard.NewBarrier(lanes)
	for l := 1; l < lanes; l++ {
		lz.spawn = append(lz.spawn, func() {
			defer lz.wg.Done()
			s.lzLane()
		})
	}
	// The ring consumes the graph's change journal: every incremental
	// rewire between soup observations becomes one 8-byte delta; bulk
	// rewrites surface as drain-time disruptions. The limit keeps a
	// worst-case round's delta bytes well under snapshot cost.
	e.Graph().EnableJournal(n * d / 8)
	return lz
}

// entry returns the ring entry for round r, panicking if the ring no
// longer (or does not yet) cover it — every caller's round arithmetic is
// bounded by depth, so a miss is a bug, not a condition.
func (lz *lazySoup) entry(r int) *lazyRound {
	e := &lz.rounds[r%lz.depth]
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
func (lz *lazySoup) rowAt(prev []int32, r int) []int32 {
	e := lz.entry(r)
	if e.disrupted {
		return e.snap
	}
	if &prev[0] != &lz.repRow[0] {
		copy(lz.repRow, prev)
	}
	graph.ApplyDeltas(lz.repRow, e.deltas)
	return lz.repRow
}

// advanceTail moves the tail cursors forward to round to, applying each
// crossed round's deltas (or adopting its snapshot by reference). Called
// when cohort to falls due: no later delivery reads an older round.
func (lz *lazySoup) advanceTail(to int) {
	for r := lz.tailRound + 1; r <= to; r++ {
		e := lz.entry(r)
		if e.disrupted {
			lz.tailRow, lz.tailOwn = e.snap, false
		} else {
			if !lz.tailOwn {
				copy(lz.tailBuf, lz.tailRow)
				lz.tailRow, lz.tailOwn = lz.tailBuf, true
			}
			graph.ApplyDeltas(lz.tailRow, e.deltas)
		}
		for _, ch := range e.idDeltas {
			lz.tailIds[ch.slot] = ch.id
		}
		lz.tailRound = r
	}
}

// StepRound implements simnet.RoundHook: it records the round's inputs
// (journal drain, id deltas) and, once a cohort falls due, moves the tail
// to its birth round and delivers it (lzDeliver).
func (s *Soup) StepRound(e *simnet.Engine, round int) {
	lz := s.lz
	rr := &lz.rounds[round%lz.depth]
	rr.round = int32(round)
	// Adjacency transition: the drained change journal when the interval
	// was incremental, a full snapshot when it was disrupted (bulk
	// rewrite or over-limit churn).
	g := e.Graph()
	deltas, disrupted := g.DrainJournal()
	if disrupted {
		rr.disrupted = true
		if rr.snap == nil {
			rr.snap = make([]int32, s.n*lz.d)
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
	if round > 0 {
		for _, slot := range e.ChurnedThisRound() {
			rr.idDeltas = append(rr.idDeltas, idDelta{slot: int32(slot), id: e.IDAt(slot)})
			rr.death[uint(slot)>>6] |= 1 << (uint(slot) & 63)
		}
	}
	if lz.tailRound < 0 {
		lz.tailRound = round
		if rr.disrupted {
			lz.tailRow, lz.tailOwn = rr.snap, false
		} else {
			// The journal starts disrupted, so the first step's drain is a
			// snapshot in practice; anchor off the live graph regardless.
			copy(lz.tailBuf, g.Adjacency())
			lz.tailRow, lz.tailOwn = lz.tailBuf, true
		}
		lz.tailIds = e.LiveIDs(lz.tailIds[:0])
	}
	for i := range s.shards {
		ss := &s.shards[i]
		for dsh := range ss.outSmp {
			ss.outSmp[dsh] = ss.outSmp[dsh][:0]
		}
	}
	// Cohort c falls due. Until the first delivery the tail stands at the
	// first recorded round, and an earlier c names a round never recorded.
	if c := round - lz.T + 1; c >= lz.tailRound {
		lz.advanceTail(c)
		s.lzDeliver(c)
	}
}

// lzDeliver replays cohort b through its T rounds from the tail (which
// stands at round b), publishes its samples and folds its tallies into the
// soup metrics.
//
// The work runs on the prebuilt replay lanes (lzLane), one per worker
// with the caller as lane 0; a single lane is the serial case of the
// same code.
func (s *Soup) lzDeliver(b int) {
	lz := s.lz
	lz.advB, lz.advR, lz.advRow = b, b, lz.tailRow
	lz.cursor.Store(0)
	lz.wg.Add(len(lz.spawn))
	for _, spawn := range lz.spawn {
		go spawn()
	}
	s.lzLane()
	lz.wg.Wait()
	for i := range s.shards {
		s.m.add(&s.shards[i].tally)
		s.shards[i].tally = Metrics{}
	}
}

// lzLane is one replay lane's share of the delivery in progress. Replay is
// round-major: the lanes claim shards off the cursor and step them
// through round r against the one materialized adjacency row, and a
// barrier separates r from r+1; lzEndRound, the barrier's last-arriver
// callback, moves the row while every lane is parked. In the birth round a
// lane creates a shard's cohort just before stepping it: the lane owns the
// shard's cohort buffer for the whole round.
func (s *Soup) lzLane() {
	lz := s.lz
	b, nsh := lz.advB, int64(len(s.shards))
	final := b + lz.T - 1
	for {
		r, row := lz.advR, lz.advRow
		lz.warmRow(row)
		for sh := lz.cursor.Add(1) - 1; sh < nsh; sh = lz.cursor.Add(1) - 1 {
			if r == b {
				s.lzCreateShard(&s.shards[sh])
			}
			s.lzReplayShard(&s.shards[sh], r, r == final, row)
		}
		lz.bar.Wait(lz.lzEndRound)
		if r == final {
			break
		}
	}
	// The final round staged the cohort's samples in outSmp: rebuild the
	// per-shard sample stores while the lanes are up.
	for dsh := lz.cursor.Add(1) - 1; dsh < nsh; dsh = lz.cursor.Add(1) - 1 {
		s.gatherSamplesShard(&s.shards[dsh], int(dsh))
	}
}

// lzEndRound closes round advR of the delivery in progress, serially, with
// every lane parked at the barrier: it re-arms the shard cursor and moves
// the shared row to the next round.
func (lz *lazySoup) lzEndRound() {
	lz.cursor.Store(0)
	lz.advR++
	if lz.advR < lz.advB+lz.T {
		lz.advRow = lz.rowAt(lz.advRow, lz.advR)
	}
}

// warmRow reads row front to back, one load per 64-byte line, into the
// calling lane's cache. Under the oracle topology a replay round's row is
// a ring snapshot written T rounds earlier and long evicted; streamed, it
// is a pass the hardware prefetcher runs ahead of, where the token loop's
// random loads would miss on nearly every line. The sum keeps the loads
// live.
func (lz *lazySoup) warmRow(row []int32) {
	const lineInts = 64 / 4
	var sum int32
	for i := 0; i < len(row); i += lineInts {
		sum += row[i]
	}
	lz.warmSink.Store(sum)
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
	ids := s.lz.tailIds
	toks := ss.cohort[:0]
	wpr := s.p.WalksPerRound
	for slot := ss.lo; slot < ss.hi; slot++ {
		id := ids[slot]
		if uint64(id) >= maxSrcID {
			panic("walks: node id exceeds the packed staging range")
		}
		idser := uint64(id) << 16
		for k := 0; k < wpr; k++ {
			toks = append(toks, replayTok{idser: idser | uint64(k), pos: int32(slot)})
		}
	}
	ss.cohort = toks
	ss.tally.Generated += int64(ss.hi-ss.lo) * int64(wpr)
}

// lzReplayShard advances the delivering cohort's tokens in ss by the
// single round r: per-step death check against the ring's replacement
// bitset, one stepMix over the call's stepSeed and one row load against
// the materialized round-r adjacency, which warmRow has already put in
// this lane's cache. It writes only ss's own cohort buffer, sample staging
// and tallies. The step core matches Reference.StepRound bit for bit.
func (s *Soup) lzReplayShard(ss *soupShard, r int, final bool, row []int32) {
	lz := s.lz
	ring := &lz.rounds[r%lz.depth]
	toks := ss.cohort
	if len(toks) == 0 {
		return
	}
	d := lz.d
	du := uint64(d)
	var death []uint64
	// At the cohort's birth round every token is freshly minted at a live
	// slot, so only later rounds check for churn.
	if r > lz.advB && len(ring.idDeltas) > 0 {
		death = ring.death
	}
	x := stepSeed(s.seed, r)
	birth := int32(lz.advB)
	slotLoc := s.slotLoc
	var died, moves, completed int64
	w := 0
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if lzReplaced(death, t.pos) {
			died++
			continue
		}
		// Step core — keep in sync with Reference.StepRound (reference.go).
		h := stepMix(x, simnet.NodeID(t.idser>>16), birth, uint16(t.idser))
		port, _ := bits.Mul64(h, du)
		pos := row[int(t.pos)*d+int(port)]
		moves++
		if final {
			completed++
			loc := slotLoc[pos]
			dsh := loc >> shard.LocalBits
			ss.outSmp[dsh] = append(ss.outSmp[dsh], stagedSmp{
				loc: t.idser>>16<<shard.LocalBits | uint64(loc&localMask)})
		} else {
			t.pos = pos
			toks[w] = t
			w++
		}
	}
	ss.cohort = toks[:w]
	ss.tally.Died += died
	ss.tally.Moves += moves
	ss.tally.Completed += completed
}

// lzMemBytes is the soup's row of the memory ledger: the ring (tail and
// replay rows, snapshots, delta and id-delta lists, death bitsets), the
// shards' cohort buffers and their samples (staging, store and offset
// index), each capacity times element size, read only when a snapshot is
// taken.
func (s *Soup) lzMemBytes() (ring, cohort, samples int64) {
	lz := s.lz
	const (
		idSize  = int(unsafe.Sizeof(simnet.NodeID(0)))
		pdSize  = int(unsafe.Sizeof(graph.PortDelta{}))
		idDSize = int(unsafe.Sizeof(idDelta{}))
		tokSize = int(unsafe.Sizeof(replayTok{}))
		stgSize = int(unsafe.Sizeof(stagedSmp{}))
		smpSize = int(unsafe.Sizeof(Sample{}))
	)
	b := (cap(lz.tailBuf)+cap(lz.repRow))*4 + cap(lz.tailIds)*idSize
	for i := range lz.rounds {
		e := &lz.rounds[i]
		b += cap(e.snap)*4 + cap(e.deltas)*pdSize + cap(e.idDeltas)*idDSize + cap(e.death)*8
	}
	c, m := 0, 0
	for i := range s.shards {
		ss := &s.shards[i]
		c += cap(ss.cohort) * tokSize
		m += cap(ss.smp)*smpSize + cap(ss.smpOff)*4
		for _, out := range ss.outSmp {
			m += cap(out) * stgSize
		}
	}
	return int64(b), int64(c), int64(m)
}
