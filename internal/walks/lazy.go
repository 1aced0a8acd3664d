package walks

// The lazy trajectory evaluator is the store of every soup without a
// forwarding cap. With ForwardCap == 0 no token is ever deferred, so a
// walk's entire T-step trajectory is a pure function of its identity
// (src, birth, serial), the evolving topology, and the churn record: no
// per-round token exchange is needed at all. Instead of moving
// every in-flight token every round, StepRound records only the round's
// inputs in a (T+2)-deep ring — topology change, occupant changes and the
// set of replaced slots — and replays one birth cohort's full
// trajectory at its delivery round birth+T-1, with per-step death checks
// against the ring. Fresh cohorts need no storage at all: every live slot
// mints WalksPerRound implicit walks, and Inject records explicit extras;
// a cohort's tokens are materialized once, at delivery, and their buffer
// is recycled.
//
// The ring is DELTA-ENCODED (DESIGN.md §9). A ring entry does not hold
// the round's full n·d adjacency snapshot; it holds the round's port
// rewires, drained from the graph's change journal — O(churn·d) entries
// per round under incremental topologies (self-healing, static), which
// is what makes n ≥ 2²⁰ rings fit in memory. Rounds whose topology was
// bulk-rewritten (the Rerandomize oracle, an over-limit churn burst) are
// recorded as full snapshots instead, so the oracle modes degrade to the
// old cost rather than breaking. Three materialized rows navigate the
// ring:
//
//   - tailRow: the adjacency at the ring's oldest still-needed round,
//     advanced forward one round per delivery (and aliasing a snapshot
//     entry outright when one is on file for the tail round).
//   - repRow: the replay scratch row, stepped forward through the ring
//     by applying each round's deltas as cohort replays demand rows; a
//     replay that needs an older row re-anchors at the tail (forward
//     only: DESIGN.md §9 records the measurement).
//   - tailIds/idRow: the same scheme for the per-round occupant-id
//     table, whose per-round delta is exactly the churned slots.
//
// Replay is round-major at every worker count: all shards step a cohort
// through round r against the one materialized row, then a barrier
// advances the row to r+1 (its last-arriver callback applies the deltas
// serially). Shard-major replay died with the snapshots — there is no
// longer a per-round row to read at random. The workers are replay LANES
// (lzLane): each claims shards off a cursor and writes only that shard's
// cohort buffer, sample staging and tallies, so the kernel shares no
// written cache line between cores.
//
// A cohort's replay reads nothing any other cohort produced: a walk's
// identity is (source id, birth round, index in its batch) — ids are never
// reused, so that is unique with no counting — which is what lets a cohort
// sit unmaterialized until its delivery round.
//
// One part is retrospective and makes the representation exact, not
// approximate: metrics and introspection. Queries (Metrics, TotalTokens,
// AppendTokens) force every in-flight cohort's partial trajectory up to
// the last stepped round, caching per-cohort positions and resuming at
// delivery, so an event is counted iff its round has run — bit-identical
// to the reference model at any query pattern and any worker count. The
// no-query hot path never pays for any of this.
//
// Overdue is identically zero here: an undeferred token steps every
// round, so its age never exceeds WalkLength-1, and NewSoup clamps
// Deadline up to WalkLength.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"dynp2p/internal/graph"
	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
)

// replayTok is one cached live token of a partially-evaluated cohort:
// the step-hash identity plus the current slot. 16 bytes, updated in
// place — replay is a single sequential stream per shard.
type replayTok struct {
	idser uint64 // src<<16 | serial
	birth int32  // birth round (normally the cohort round; Inject may differ)
	pos   int32  // slot the token occupies after the evalRound step
}

// injRec is one Inject call, recorded (Soup.inj) until the next StepRound
// and, on the lazy store, from there until its cohort is materialized.
type injRec struct {
	slot  int32
	count int32
	birth int32
	base  uint16 // first serial: WalksPerRound + the slot's earlier injections
	id    simnet.NodeID
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
// snapshot when the interval was disrupted) plus the round's occupant
// changes. The occupant changes are kept twice: as the list that steps an
// id table forward, and as the bitset a replay tests a token's slot
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

// lazyCohort tracks one birth cohort's evaluation state. Its token
// buffers live per birth shard in soupShard.lzToks.
type lazyCohort struct {
	round     int32 // birth round; -1 = empty
	evalRound int32 // replayed through this round (== round-1 at creation)
	created   bool
	delivered bool
	inj       []injRec
}

// lazySoup is the store-wide lazy state hanging off Soup.lz.
type lazySoup struct {
	T     int // WalkLength: trajectory length and delivery offset
	depth int // ring depth, T+2: covers every input a replay can need
	d     int // topology degree

	firstRound, lastRound int // first/last round stepped; -1 before any

	rounds  []lazyRound
	cohorts []lazyCohort

	// Adjacency cursors over the delta ring (see the package comment).
	tailRound int     // oldest round any future replay can need
	tailRow   []int32 // row(tailRound); aliases a ring snap when tailOwn is false
	tailOwn   bool
	tailBuf   []int32 // tailRow's owned backing store
	repRound  int     // round repRow holds; -1 = unset
	repRow    []int32 // replay scratch row, stepped through the ring by deltas

	// Occupant-id cursors, same discipline (ids are never disrupted:
	// churn is their only writer and it is always incremental).
	tailIds []simnet.NodeID // ids at tailRound
	idRound int             // round idRow holds; -1 = unset
	idRow   []simnet.NodeID

	// Replay lanes (lzLane), all built once so an advance allocates
	// nothing. Lane 0 runs on the caller; lane l >= 1 runs spawn[l-1]. The
	// lanes also publish what Samples() serves: a delivery's sample gather
	// is their last phase, so a delivery path must go through lzAdvance.
	spawn  []func()
	wg     sync.WaitGroup
	bar    *shard.Barrier // the lanes' round barrier; lzEndRound is its callback
	cursor atomic.Int64   // next unclaimed shard of the phase in progress

	// The advance in progress, written by lzAdvance before the lanes start
	// and by lzEndRound between rounds: cohort advB replays round advR
	// against advRow, through advTo. advR == advB-1 is the creation phase,
	// which reads advIds (the round-advB occupants) instead of a row.
	advB, advR, advTo int
	advRow            []int32
	advIds            []simnet.NodeID
}

// newLazySoup builds the ring. Cursor rows and per-round tables are
// allocated up front; per-round delta lists and snapshot fallbacks grow
// on demand (a steady incremental topology never allocates a snapshot
// beyond the first round's).
func newLazySoup(e *simnet.Engine, s *Soup) *lazySoup {
	T := s.p.WalkLength
	depth := T + 2
	n, d := s.n, e.Degree()
	lz := &lazySoup{
		T: T, depth: depth, d: d,
		firstRound: -1, lastRound: -1,
		tailRound: -1, repRound: -1, idRound: -1,
		rounds:  make([]lazyRound, depth),
		cohorts: make([]lazyCohort, depth),
		tailBuf: make([]int32, n*d),
		repRow:  make([]int32, n*d),
		tailIds: make([]simnet.NodeID, 0, n),
		idRow:   make([]simnet.NodeID, 0, n),
	}
	for i := range lz.rounds {
		lz.rounds[i].round = -1
		lz.rounds[i].death = make([]uint64, (n+63)/64)
		lz.cohorts[i].round = -1
	}
	lanes := min(s.workers, len(s.shards))
	lz.bar = shard.NewBarrier(lanes)
	for l := 1; l < lanes; l++ {
		lz.spawn = append(lz.spawn, func() {
			defer lz.wg.Done()
			s.lzLane()
		})
	}
	for i := range s.shards {
		s.shards[i].lzToks = make([][]replayTok, depth)
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

// rowAt materializes and returns the adjacency row of round target
// (tailRound <= target <= lastRound). Snapshot entries are returned
// aliased (zero copy — the Rerandomize oracle pays nothing it didn't
// pay with full-row rings). Delta entries step the repRow scratch
// forward from the nearest absolute anchor. The returned slice is
// read-only for callers and valid until the next rowAt/advanceTail call.
func (lz *lazySoup) rowAt(target int) []int32 {
	e := lz.entry(target)
	if e.disrupted {
		return e.snap
	}
	if lz.repRound == target {
		return lz.repRow
	}
	// Anchor at the nearest absolute row at or below target — repRow where
	// it stands, a snapshot entry, or the tail row — then apply each
	// round's deltas up to target.
	anchor := -1
	var src []int32
	for r := target; r >= lz.tailRound; r-- {
		if r == lz.repRound {
			anchor, src = r, lz.repRow
			break
		}
		if er := lz.entry(r); er.disrupted {
			anchor, src = r, er.snap
			break
		}
		if r == lz.tailRound {
			anchor, src = r, lz.tailRow
			break
		}
	}
	if anchor < 0 {
		panic("walks: lazy ring cannot anchor an adjacency row")
	}
	if &src[0] != &lz.repRow[0] {
		copy(lz.repRow, src)
	}
	for r := anchor + 1; r <= target; r++ {
		graph.ApplyDeltas(lz.repRow, lz.entry(r).deltas)
	}
	lz.repRound = target
	return lz.repRow
}

// idsAt materializes the occupant-id table of round target
// (tailRound <= target <= lastRound), aliasing the tail table when the
// rounds coincide. Read-only for callers; valid until the next
// idsAt/advanceTail call.
func (lz *lazySoup) idsAt(target int) []simnet.NodeID {
	if target == lz.tailRound {
		return lz.tailIds
	}
	if lz.idRound == target {
		return lz.idRow
	}
	if lz.idRound < lz.tailRound || lz.idRound > target {
		lz.idRow = append(lz.idRow[:0], lz.tailIds...)
		lz.idRound = lz.tailRound
	}
	for r := lz.idRound + 1; r <= target; r++ {
		for _, ch := range lz.entry(r).idDeltas {
			lz.idRow[ch.slot] = ch.id
		}
	}
	lz.idRound = target
	return lz.idRow
}

// advanceTail moves the tail cursors forward to round to, applying each
// crossed round's deltas (or adopting its snapshot by reference). Called
// after a delivery retires the old tail round.
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

// stepLazy is the lazy store's StepRound: record the round's inputs
// (journal drain, id deltas), seat the round's cohort (identity only —
// no token state), replay the one cohort falling due and publish its
// samples (lzAdvance), and advance the tail cursors past the retired
// round.
func (s *Soup) stepLazy(e *simnet.Engine, round int) {
	lz := s.lz
	ri := round % lz.depth
	rr := &lz.rounds[ri]
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
	if lz.firstRound < 0 {
		lz.firstRound = round
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
	// The cohort takes the round's injection record; the soup gets the ring
	// slot's previous list back, emptied.
	coh := &lz.cohorts[ri]
	oldInj := coh.inj
	*coh = lazyCohort{round: int32(round), evalRound: int32(round - 1), inj: s.inj}
	s.inj = oldInj[:0]
	for i := range s.shards {
		ss := &s.shards[i]
		for dsh := range ss.outSmp {
			ss.outSmp[dsh] = ss.outSmp[dsh][:0]
		}
	}
	lz.lastRound = round
	if c := round - lz.T + 1; c >= lz.firstRound {
		s.lzAdvance(c, round)
		ci := c % lz.depth
		for i := range s.shards {
			ss := &s.shards[i]
			if buf := ss.lzToks[ci]; buf != nil {
				ss.lzFree = append(ss.lzFree, buf[:0])
				ss.lzToks[ci] = nil
			}
		}
		lz.cohorts[ci].delivered = true
		// Round c's inputs are never read again: the tail moves on (capped
		// at the last recorded round — T = 1 delivers the round it records).
		lz.advanceTail(min(c+1, lz.lastRound))
	}
}

// lzAdvance creates cohort b if needed and replays it through round to,
// folding the tallies into the soup metrics.
//
// The work runs on the prebuilt replay lanes (lzLane), one per worker
// with the caller as lane 0; a single lane is the serial case of the
// same code. An advance through the cohort's last round (the delivery)
// also rebuilds the sample stores from what it staged.
func (s *Soup) lzAdvance(b, to int) {
	lz := s.lz
	coh := &lz.cohorts[b%lz.depth]
	if int(coh.round) != b {
		panic("walks: lazy cohort ring does not cover the requested round")
	}
	if int(coh.evalRound) >= to {
		return
	}
	// An uncreated cohort stands at evalRound b-1: its first phase is
	// "round" b-1, creation, which needs the round-b occupants and no row.
	lz.advB, lz.advR, lz.advTo = b, int(coh.evalRound)+1, to
	if coh.created {
		lz.advRow = lz.rowAt(lz.advR)
	} else {
		lz.advR, lz.advIds = b-1, lz.idsAt(b)
	}
	lz.cursor.Store(0)
	lz.wg.Add(len(lz.spawn))
	for _, spawn := range lz.spawn {
		go spawn()
	}
	s.lzLane()
	lz.wg.Wait()
	coh.created = true
	coh.evalRound = int32(to)
	for i := range s.shards {
		s.m.add(&s.shards[i].tally)
		s.shards[i].tally = Metrics{}
	}
}

// lzLane is one replay lane's share of the advance in progress. Replay is
// round-major: the lanes claim shards off the cursor and step them
// through round r against the one materialized adjacency row, and a
// barrier separates r from r+1 (and cohort creation from the first
// round); lzEndRound, the barrier's last-arriver callback, moves the row
// while every lane is parked.
func (s *Soup) lzLane() {
	lz := s.lz
	b, to, nsh := lz.advB, lz.advTo, int64(len(s.shards))
	final := b + lz.T - 1
	for {
		r, row := lz.advR, lz.advRow
		for sh := lz.cursor.Add(1) - 1; sh < nsh; sh = lz.cursor.Add(1) - 1 {
			if r < b {
				s.lzCreateShard(&s.shards[sh], b, lz.advIds)
			} else {
				s.lzReplayShard(&s.shards[sh], b, r, r == final, row)
			}
		}
		lz.bar.Wait(lz.lzEndRound)
		if r == to {
			break
		}
	}
	// A delivery has staged the round's samples in outSmp: rebuild the
	// per-shard sample stores (the capped gather's counting sort) while the
	// lanes are up. Until the first delivery there is nothing to replace.
	if to == final {
		for dsh := lz.cursor.Add(1) - 1; dsh < nsh; dsh = lz.cursor.Add(1) - 1 {
			s.gatherSamplesShard(&s.shards[dsh], int(dsh))
		}
	}
}

// lzEndRound closes phase advR of the advance in progress, serially, with
// every lane parked at the barrier: it re-arms the shard cursor and moves
// the shared row to the next round.
func (lz *lazySoup) lzEndRound() {
	lz.cursor.Store(0)
	if lz.advR < lz.advTo {
		lz.advR++
		lz.advRow = lz.rowAt(lz.advR)
	}
}

// lzReplaced tests slot in a replacement bitset (nil = no churn).
func lzReplaced(death []uint64, slot int32) bool {
	return death != nil && death[uint32(slot)>>6]>>(uint32(slot)&63)&1 != 0
}

// lzCreateShard materializes cohort b's tokens born in ss's slots:
// recorded injections first (they were stored at their slot before the
// round began, so they die with a churned carrier), then one implicit
// fresh batch per slot with serials 0 … WalksPerRound-1 — identical
// semantics to the capped scatter's generation. ids is the round-b
// occupant table materialized by the caller.
func (s *Soup) lzCreateShard(ss *soupShard, b int, ids []simnet.NodeID) {
	lz := s.lz
	ring := &lz.rounds[b%lz.depth]
	coh := &lz.cohorts[b%lz.depth]
	var death []uint64
	if len(ring.idDeltas) > 0 {
		death = ring.death
	}
	toks := ss.lzPop()
	var died int64
	lo, hi := ss.lo, ss.hi
	for i := range coh.inj {
		in := &coh.inj[i]
		if slot := int(in.slot); slot < lo || slot >= hi {
			continue
		}
		if lzReplaced(death, in.slot) {
			died += int64(in.count)
			continue
		}
		idser := uint64(in.id) << 16
		for k := int32(0); k < in.count; k++ {
			toks = append(toks, replayTok{idser: idser | uint64(in.base+uint16(k)), birth: in.birth, pos: in.slot})
		}
	}
	wpr := s.p.WalksPerRound
	for slot := lo; slot < hi; slot++ {
		id := ids[slot]
		if uint64(id) >= maxSrcID {
			panic("walks: node id exceeds the packed staging range")
		}
		idser := uint64(id) << 16
		for k := 0; k < wpr; k++ {
			toks = append(toks, replayTok{idser: idser | uint64(k), birth: int32(b), pos: int32(slot)})
		}
	}
	ss.lzToks[b%lz.depth] = toks
	ss.tally.Generated += int64(hi-lo) * int64(wpr)
	ss.tally.Died += died
}

// lzReplayShard advances cohort b's tokens in ss by the single round r:
// per-step death check against the ring's replacement bitset, one
// step hash and one row load against the materialized round-r adjacency.
// It writes only ss's own cohort buffer, sample staging and tallies. The
// step core matches store.go's scatter loop bit for bit.
func (s *Soup) lzReplayShard(ss *soupShard, b, r int, final bool, row []int32) {
	lz := s.lz
	ring := &lz.rounds[r%lz.depth]
	toks := ss.lzToks[b%lz.depth]
	if len(toks) == 0 {
		return
	}
	d := lz.d
	du := uint64(d)
	var death []uint64
	// At r == b every token is freshly minted (injected deaths were
	// resolved at creation), so only later rounds check for churn.
	if r > b && len(ring.idDeltas) > 0 {
		death = ring.death
	}
	lazyWalk := s.p.Lazy
	seed := s.seed
	slotLoc := s.slotLoc
	var died, moves, completed int64
	var pfSink int32
	w := 0
	for i := 0; i < len(toks); i++ {
		// The upcoming row access is random; touch it a few records ahead
		// so it hits L1 when its turn comes (the sink keeps the load live).
		if i+6 < len(toks) {
			pfSink += row[int(toks[i+6].pos)*d]
		}
		t := toks[i]
		if lzReplaced(death, t.pos) {
			died++
			continue
		}
		// Step core — keep in sync with scatter (store.go).
		h := stepHash(seed, r, simnet.NodeID(t.idser>>16), t.birth, uint16(t.idser))
		pos := t.pos
		if lazyStay := lazyWalk && h>>63 == 1; !lazyStay {
			if lazyWalk {
				h <<= 1
			}
			port, _ := bits.Mul64(h, du)
			pos = row[int(t.pos)*d+int(port)]
		}
		moves++
		if final {
			completed++
			loc := slotLoc[pos]
			dsh := loc >> shard.LocalBits
			ss.outSmp[dsh] = append(ss.outSmp[dsh], stagedSmp{
				loc: t.idser>>16<<shard.LocalBits | uint64(loc&localMask), birth: t.birth})
		} else {
			t.pos = pos
			toks[w] = t
			w++
		}
	}
	ss.lzToks[b%lz.depth] = toks[:w]
	ss.pfSink += uint32(pfSink)
	ss.tally.Died += died
	ss.tally.Moves += moves
	ss.tally.Completed += completed
}

// lzPop takes a recycled token buffer (empty, capacity retained) from
// the shard's pool; the no-query steady state keeps exactly one buffer
// in circulation per shard.
func (ss *soupShard) lzPop() []replayTok {
	if n := len(ss.lzFree); n > 0 {
		buf := ss.lzFree[n-1]
		ss.lzFree = ss.lzFree[:n-1]
		return buf
	}
	return make([]replayTok, 0, ss.lzCap)
}

// lzSync forces every in-flight cohort's evaluation up to the last
// stepped round, serialized so concurrent protocol handlers can query
// freely. Repeat calls are cheap: each cohort resumes from its cached
// positions, so a query-every-round workload degrades gracefully to one
// step per token per round rather than re-deriving trajectories.
func (s *Soup) lzSync() {
	lz := s.lz
	s.countsMu.Lock()
	defer s.countsMu.Unlock()
	if R := lz.lastRound; R >= 0 {
		for b := max(lz.firstRound, R-lz.T+2); b <= R; b++ {
			s.lzAdvance(b, R)
		}
	}
}

// lzTotalTokens sums live cohort sizes plus pending injections.
func (s *Soup) lzTotalTokens() int {
	s.lzSync()
	lz := s.lz
	t := 0
	if lz.lastRound >= 0 {
		for b := max(lz.firstRound, lz.lastRound-lz.T+2); b <= lz.lastRound; b++ {
			ci := b % lz.depth
			for i := range s.shards {
				t += len(s.shards[i].lzToks[ci])
			}
		}
	}
	for i := range s.inj {
		t += int(s.inj[i].count)
	}
	return t
}

// lzAppendTokens appends slot's tokens in the lazy store's canonical
// order: cohorts by birth round, within a cohort by birth shard then
// materialization order, pending injections last.
func (s *Soup) lzAppendTokens(slot int, dst []Token) []Token {
	s.lzSync()
	lz := s.lz
	if lz.lastRound >= 0 {
		for b := max(lz.firstRound, lz.lastRound-lz.T+2); b <= lz.lastRound; b++ {
			ci := b % lz.depth
			steps := uint16(lz.T - (lz.lastRound - b + 1))
			for i := range s.shards {
				for _, t := range s.shards[i].lzToks[ci] {
					if int(t.pos) == slot {
						dst = append(dst, Token{
							Src: simnet.NodeID(t.idser >> 16), Birth: t.birth,
							Serial: uint16(t.idser), Steps: steps,
						})
					}
				}
			}
		}
	}
	for i := range s.inj {
		in := &s.inj[i]
		if int(in.slot) != slot {
			continue
		}
		for k := int32(0); k < in.count; k++ {
			dst = append(dst, Token{Src: in.id, Birth: in.birth,
				Serial: in.base + uint16(k), Steps: uint16(s.p.WalkLength)})
		}
	}
	return dst
}
