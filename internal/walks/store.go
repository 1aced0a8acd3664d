package walks

import (
	"math"

	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
)

const (
	localMask = 1<<shard.LocalBits - 1

	// maxSrcID bounds node ids the soup can carry: a staged sample packs
	// the source id and its destination's local slot index into one 64-bit
	// word, so ids must fit 64-LocalBits = 38 bits. Ids are dense and
	// monotone, so 2.7·10¹¹ of them outlast any feasible simulation;
	// generation guards the bound.
	maxSrcID = 1 << (64 - shard.LocalBits)
)

// stagedSmp is one completed walk in flight to its endpoint. Every walk
// of a delivery is born in the delivering cohort's round, so the birth
// round is not staged.
type stagedSmp struct {
	loc uint64 // src<<LocalBits | destination-local slot index
}

// soupShard is one shard's slice of the soup: the per-round sample store,
// its staging, and the cohort buffer of the delivery in progress. Every
// buffer is reused across rounds. One lane owns a shard for the duration
// of a replay or gather phase; the only cross-shard accesses are reads of
// other shards' staging, always on the far side of a barrier.
type soupShard struct {
	lo, hi int // slot range [lo, hi) owned by this shard

	// Samples completed this round, one run per slot; Soup.Samples returns
	// the runs.
	smp shard.Runs[Sample]

	// Sample staging, segregated by destination shard (grid-sized).
	outSmp [][]stagedSmp

	tally Metrics

	// The tokens of the cohort being delivered that were born in this
	// shard's slots (their pos may be anywhere). Empty between deliveries;
	// every delivery reuses the one buffer.
	cohort []replayTok
}

func (ss *soupShard) init(g shard.Grid, sh, n, wpr int) {
	ss.lo, ss.hi = g.Bounds(sh, n)
	slots := ss.hi - ss.lo
	// A cohort token carries its index in the shard's creation order in a
	// uint32 (replayTok.idx).
	if uint64(slots)*uint64(wpr) > math.MaxUint32 {
		panic("walks: a shard's cohort exceeds the uint32 token index range")
	}
	ss.smp.Reset(slots)
	// A cohort is exactly slots·wpr records at creation (tokens only die
	// after that).
	ss.cohort = make([]replayTok, 0, slots*wpr)

	// Pre-size the sample staging to its steady-state maximum. Each round
	// one cohort of slots·wpr walks completes here and scatters
	// near-uniformly over the grid, so outSmp[dsh] holds a multinomial
	// draw with mean mu = slots·wpr/nsh; mu + 8·sqrt(mu) + 8 puts the
	// per-buffer per-round overflow probability below ~1e-12, so append
	// never grows these in steady state. (Zero-capacity buffers doubling
	// toward their record maxima scale allocs/round with nsh² — the
	// 256²-buffer grid at n=262144 sat near 10³ allocs/round for hundreds
	// of rounds.) All buffers are carved from one array (shard.Carve); an
	// overflow peels just that buffer off and keeps the grown copy.
	nsh := g.Count()
	mu := float64(slots*wpr) / float64(nsh)
	bufCap := int(mu+8*math.Sqrt(mu)) + 8
	ss.outSmp = shard.Carve[stagedSmp](nsh, bufCap)
}

// gatherSamples rebuilds destination shard dsh's sample store from
// the per-source-shard outSmp staging with a stable two-pass counting
// sort (replacing last round's sample store wholesale is also what
// "clears" samples). It is the last phase of a delivery. Sample volume is
// the per-round completion rate — a few percent of token volume — so the
// counting pass is a second scan.
func (s *Soup) gatherSamples(dsh int) {
	ds := &s.shards[dsh]
	ds.smp.Reset(ds.hi - ds.lo)
	for ssh := range s.shards {
		for _, t := range s.shards[ssh].outSmp[dsh] {
			ds.smp.Count(int(t.loc & localMask))
		}
	}
	ds.smp.Layout()
	birth := int32(s.advB)
	for ssh := range s.shards {
		for _, t := range s.shards[ssh].outSmp[dsh] {
			smp := Sample{Src: simnet.NodeID(t.loc >> shard.LocalBits), Birth: birth}
			ds.smp.Place(int(t.loc&localMask), &smp)
		}
	}
}
