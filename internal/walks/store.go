package walks

import (
	"math"
	"math/bits"
	"slices"

	"dynp2p/internal/graph"
	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
)

// The columnar store keeps tokens in two packed 64-bit lanes. The first
// lane holds the source id and the token's local slot index within its
// shard (src<<LocalBits | local); the second packs birth (high 32 bits),
// serial (middle 16) and steps remaining (low 16). Stepping a token is
// pack-- and a token completes when the low half hits zero, so the hot
// loop never unpacks the trio. (The original three-column src/birth/meta
// layout was measured first: birth, serial and steps are always read and
// written together, and every extra lane costs a scattered write stream
// in the counting-sort placement, so the columns were fused into the two
// lanes below.)
const (
	stepsBits  = 16
	stepsMask  = 1<<stepsBits - 1
	serialBits = 16
	birthShift = stepsBits + serialBits
	localMask  = 1<<shard.LocalBits - 1

	// maxSrcID bounds node ids the soup can carry: the first lane packs
	// the source id and a slot's local index into one 64-bit word, so ids
	// must fit 64-LocalBits = 38 bits. Ids are dense and monotone, so
	// 2.7·10¹¹ of them outlast any feasible simulation; generation and
	// Inject guard the bound.
	maxSrcID = 1 << (64 - shard.LocalBits)
)

func packToken(birth int32, serial uint16, steps uint16) uint64 {
	return uint64(uint32(birth))<<birthShift | uint64(serial)<<stepsBits | uint64(steps)
}

func birthOf(pack uint64) int32   { return int32(pack >> birthShift) }
func serialOf(pack uint64) uint16 { return uint16(pack >> stepsBits) }
func stepsOf(pack uint64) uint16  { return uint16(pack & stepsMask) }

// tokRec is one token in the store and in exchange staging: 16 bytes, two
// packed lanes. A staged record and a stored record are bit-identical —
// loc's local-index half is the destination slot while in flight and the
// holding slot once stored — so the gather's counting sort places each
// token with a single 16-byte copy.
type tokRec struct {
	loc  uint64 // src<<LocalBits | local slot index (within the shard)
	pack uint64 // birth<<32 | serial<<16 | steps
}

func (t tokRec) src() simnet.NodeID { return simnet.NodeID(t.loc >> shard.LocalBits) }

func (t tokRec) token() Token {
	return Token{Src: t.src(), Birth: birthOf(t.pack), Serial: serialOf(t.pack), Steps: stepsOf(t.pack)}
}

// stagedSmp is one completed walk in flight to its endpoint.
type stagedSmp struct {
	loc   uint64 // src<<LocalBits | destination-local slot index
	birth int32
	_     int32
}

// grow returns recs resized to n, discarding previous contents. Capacity
// grows geometrically so the steady-state round loop stops allocating
// once the token population peaks.
func grow(recs []tokRec, n int) []tokRec {
	if cap(recs) < n {
		return make([]tokRec, n, max(n, 2*cap(recs)))
	}
	return recs[:n]
}

// soupShard is one shard's slice of the soup: the token store, the
// per-round sample store, and all exchange staging. Every buffer is
// reused across rounds. One worker owns a shard for the duration of a
// scatter or gather pass; the only cross-shard accesses are reads of
// other shards' staging, always on the far side of a shard.Run barrier.
// The sample store and its staging serve both token stores; of the rest,
// init allocates only the side NewSoup selected.
type soupShard struct {
	lo, hi int // slot range [lo, hi) owned by this shard

	// Capped store: slot lo+i holds tokens tok[off[i]:off[i+1]] in
	// canonical bucket order (deferred first, then arrivals by source
	// slot), rebuilt every round by the gather's counting sort into
	// nextTok/nextOff.
	tok     []tokRec
	nextTok []tokRec
	off     []int32 // len hi-lo+1
	nextOff []int32

	// Samples completed this round, flat with the per-slot offset-index
	// scheme; Soup.Samples returns sub-slice views.
	smp    []Sample
	smpOff []int32 // len hi-lo+1

	// counts is counting-sort scratch for both gathers.
	counts []int32

	// Scatter staging, segregated by destination shard (grid-sized). out
	// holds the capped store's stepped tokens, consumed by the same
	// round's gather.
	out    [][]tokRec
	outSmp [][]stagedSmp

	// Deferred tokens (over the forwarding cap) stay in their slot, which
	// is always in this same shard; they sort before all arrivals.
	deferred []tokRec

	tally Metrics

	// Lazy store (lazy.go): the tokens of the cohort being delivered that
	// were born in this shard's slots (their pos may be anywhere). Empty
	// between deliveries; every delivery reuses the one buffer.
	cohort []replayTok
}

func (ss *soupShard) init(g shard.Grid, sh, n, wpr int, capped bool) {
	ss.lo, ss.hi = g.Bounds(sh, n)
	slots := ss.hi - ss.lo
	ss.smpOff = make([]int32, slots+1)
	ss.counts = make([]int32, slots)
	if capped {
		ss.off = make([]int32, slots+1)
		ss.nextOff = make([]int32, slots+1)
		ss.out = make([][]tokRec, g.Count())
	} else {
		// A cohort is exactly slots·wpr records at creation plus the round's
		// injections (tokens only die after that).
		ss.cohort = make([]replayTok, 0, slots*wpr)
	}

	// Pre-size the sample staging to its steady-state maximum. Each round
	// one cohort of slots·wpr walks completes here and scatters
	// near-uniformly over the grid, so outSmp[dsh] holds a multinomial
	// draw with mean mu = slots·wpr/nsh; mu + 8·sqrt(mu) + 8 puts the
	// per-buffer per-round overflow probability below ~1e-12, so append
	// never grows these in steady state. (Zero-capacity buffers doubling
	// toward their record maxima scale allocs/round with nsh² — the
	// 256²-buffer grid at n=262144 sat near 10³ allocs/round for hundreds
	// of rounds.) All buffers are carved from one arena; an overflow peels
	// just that buffer off and keeps the grown copy.
	nsh := g.Count()
	mu := float64(slots*wpr) / float64(nsh)
	bufCap := int(mu+8*math.Sqrt(mu)) + 8
	arena := make([]stagedSmp, nsh*bufCap)
	ss.outSmp = make([][]stagedSmp, nsh)
	for d := 0; d < nsh; d++ {
		ss.outSmp[d] = arena[d*bufCap : d*bufCap : (d+1)*bufCap]
	}
}

// insert splices count fresh tokens into the store at the end of a slot's
// bucket (the Inject path; runs between rounds, never during
// an exchange). O(shard population) for the tail shift — fine for
// experiment-sized injections.
func (ss *soupShard) insert(local, count int, id simnet.NodeID, birth int32, baseSerial, steps uint16) {
	old := len(ss.tok)
	at := int(ss.off[local+1])
	ss.tok = slices.Grow(ss.tok, count)[:old+count]
	copy(ss.tok[at+count:], ss.tok[at:old])
	loc := uint64(id)<<shard.LocalBits | uint64(local)
	for k := 0; k < count; k++ {
		ss.tok[at+k] = tokRec{loc: loc, pack: packToken(birth, baseSerial+uint16(k), steps)}
	}
	for i := local + 1; i < len(ss.off); i++ {
		ss.off[i] += int32(count)
	}
}

// prepRowLoc composes this round's adjacency with the location table for
// this shard's slots: the token loops then resolve a step destination's
// (shard, local) with a single array load instead of two dependent random
// loads (adjacency, then slotLoc).
func (s *Soup) prepRowLoc(ss *soupShard, g *graph.Graph, d int) {
	slotLoc := s.slotLoc
	rowLoc := s.rowLoc
	for slot := ss.lo; slot < ss.hi; slot++ {
		row := g.Neighbors(slot)
		out := rowLoc[slot*d : slot*d+d]
		for pt := range out {
			out[pt] = slotLoc[row[pt]]
		}
	}
}

// scatter is the capped store's fused per-round pass over source shards:
// for every slot it applies churn death, emits the slot's fresh tokens
// (after the stored ones, with serials 0 … WalksPerRound-1), and walks
// the combined bucket in positional order, dropping overdue tokens,
// deferring those past the forwarding cap, and stepping the rest into the
// per-destination-shard staging.
func (s *Soup) scatter(e *simnet.Engine, round int) {
	g := e.Graph()
	d := uint64(g.Degree())
	p := s.p
	stepsInit := uint16(p.WalkLength)
	s.grid.Run(s.workers, func(sh int) {
		ss := &s.shards[sh]
		out := ss.out
		for dsh := range out {
			out[dsh] = out[dsh][:0]
			ss.outSmp[dsh] = ss.outSmp[dsh][:0]
		}
		ss.deferred = ss.deferred[:0]
		s.prepRowLoc(ss, g, int(d))
		// Tally counters live in locals so the token loop keeps them in
		// registers; they flush to the shard tally once per pass.
		var died, overdue, deferredN, moves, completed int64
		tokens := ss.tok
		for slot := ss.lo; slot < ss.hi; slot++ {
			local := slot - ss.lo
			b0 := int(ss.off[local])
			stored := int(ss.off[local+1]) - b0
			// Tokens at a replaced slot die with their carrier; the
			// newcomer's fresh walks (below) are unaffected.
			if stored > 0 && e.ReplacedInRound(slot, round) {
				died += int64(stored)
				stored = 0
			}
			total := stored + p.WalksPerRound
			if total == 0 {
				continue
			}
			budget := total
			if budget > p.ForwardCap {
				budget = p.ForwardCap
				deferredN += int64(total - budget)
			}
			var genLoc uint64
			if p.WalksPerRound > 0 {
				id := e.IDAt(slot)
				if uint64(id) >= maxSrcID {
					panic("walks: node id exceeds the packed staging range")
				}
				genLoc = uint64(id)<<shard.LocalBits | uint64(local)
			}
			selfLoc := s.slotLoc[slot]
			row := s.rowLoc[slot*int(d) : slot*int(d)+int(d)]
			for idx := 0; idx < total; idx++ {
				var t tokRec
				if idx < stored {
					t = tokens[b0+idx]
					if round-int(birthOf(t.pack)) > p.Deadline {
						overdue++
						continue
					}
				} else {
					// Fresh token: its serial is its index in the batch.
					t = tokRec{loc: genLoc, pack: packToken(int32(round), uint16(idx-stored), stepsInit)}
				}
				if idx >= budget {
					// Over the forwarding budget: the token waits here
					// until next round. Its loc already carries this
					// slot's local index.
					ss.deferred = append(ss.deferred,
						tokRec{loc: t.loc&^uint64(localMask) | uint64(local), pack: t.pack})
					continue
				}
				// Step core — keep in sync with lzReplayShard (lazy.go).
				h := stepHash(s.seed, round, t.src(), birthOf(t.pack), serialOf(t.pack))
				loc := selfLoc
				// Lazy self-loops flip the TOP hash bit: the fastrange
				// port pick below consumes high bits, so the coin must
				// come off the same end and be shifted away.
				if lazyStay := p.Lazy && h>>63 == 1; !lazyStay {
					if p.Lazy {
						h <<= 1
					}
					// Fastrange port pick: ⌊h·d/2^64⌋ is uniform over
					// [0, d) without the hardware divide h%d costs in
					// this, the hottest loop of the simulator.
					port, _ := bits.Mul64(h, d)
					loc = row[port]
				}
				t.pack--
				moves++
				dsh := loc >> shard.LocalBits
				t.loc = t.loc&^uint64(localMask) | uint64(loc&localMask)
				if t.pack&stepsMask == 0 {
					completed++
					ss.outSmp[dsh] = append(ss.outSmp[dsh],
						stagedSmp{loc: t.loc, birth: birthOf(t.pack)})
				} else {
					out[dsh] = append(out[dsh], t)
				}
			}
		}
		ss.tally = Metrics{
			Generated: int64(ss.hi-ss.lo) * int64(p.WalksPerRound),
			Completed: completed, Died: died,
			Overdue: overdue, Moves: moves, Deferred: deferredN,
		}
	})
}

// gather finishes the capped store's round: it rebuilds every shard's
// token store with a counting sort over the staged exchange — count
// tokens per destination slot, turn the counts into the new offset index
// (shard.Offsets), then place each token through per-slot cursors, one
// 16-byte copy per token. Sources are read in the same fixed order both
// times — deferred tokens first, then source shards in index order — and
// the placement is stable, so each bucket keeps the canonical (deferred,
// then source slot, then source order) ordering at every worker count and
// the store ends the round fully compacted.
//
// Samples get the same counting-sort treatment (replacing last round's
// sample store wholesale is also what "clears" samples — no serial
// clearing prelude).
func (s *Soup) gather() {
	s.grid.Run(s.workers, func(dsh int) {
		ds := &s.shards[dsh]
		counts := ds.counts
		clear(counts)
		for _, t := range ds.deferred {
			counts[t.loc&localMask]++
		}
		for ssh := range s.shards {
			for _, t := range s.shards[ssh].out[dsh] {
				counts[t.loc&localMask]++
			}
		}
		total := shard.Offsets(counts, ds.nextOff)
		ds.nextTok = grow(ds.nextTok, int(total))
		// Cursors start at each slot's offset.
		copy(counts, ds.nextOff[:len(counts)])
		placeTokens(ds.nextTok, counts, ds.deferred)
		for ssh := range s.shards {
			placeTokens(ds.nextTok, counts, s.shards[ssh].out[dsh])
		}
		ds.tok, ds.nextTok = ds.nextTok, ds.tok
		ds.off, ds.nextOff = ds.nextOff, ds.off

		s.gatherSamplesShard(ds, dsh)
	})
}

// placeTokens copies buf's tokens, in order, to their slots' cursors in
// next, advancing each cursor.
func placeTokens(next []tokRec, cursor []int32, buf []tokRec) {
	for _, t := range buf {
		l := t.loc & localMask
		next[cursor[l]] = t
		cursor[l]++
	}
}

// gatherSamplesShard rebuilds destination shard dsh's sample store from
// the per-source-shard outSmp staging with a stable two-pass counting
// sort (replacing last round's sample store wholesale is also what
// "clears" samples). Shared by the capped gather and the lazy evaluator's
// delivery step. Sample volume is the per-round completion rate — a few
// percent of token volume — so the counting pass is a second scan.
func (s *Soup) gatherSamplesShard(ds *soupShard, dsh int) {
	counts := ds.counts
	for i := range counts {
		counts[i] = 0
	}
	for ssh := range s.shards {
		for _, t := range s.shards[ssh].outSmp[dsh] {
			counts[t.loc&localMask]++
		}
	}
	stotal := int(shard.Offsets(counts, ds.smpOff))
	if cap(ds.smp) < stotal {
		ds.smp = make([]Sample, stotal, max(stotal, 2*cap(ds.smp)))
	} else {
		ds.smp = ds.smp[:stotal]
	}
	copy(counts, ds.smpOff[:len(counts)])
	for ssh := range s.shards {
		for _, t := range s.shards[ssh].outSmp[dsh] {
			l := t.loc & localMask
			pos := counts[l]
			counts[l] = pos + 1
			ds.smp[pos] = Sample{Src: simnet.NodeID(t.loc >> shard.LocalBits), Birth: t.birth}
		}
	}
}
