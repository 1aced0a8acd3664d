package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dynp2p"
	"dynp2p/internal/overlay"
	"dynp2p/internal/protocol"
	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
)

// stack is what the load generator drives. *dynp2p.Network (the untraced
// runs) satisfies it as is; tracedStack assembles the same layers with
// span wrappers.
type stack interface {
	Run(rounds int)
	Round() int
	Store(slot int, key uint64, data []byte)
	Retrieve(slot int, key uint64, expect []byte)
	Results() []dynp2p.Result
	Stats() dynp2p.Stats
	WarmupRounds() int
	Tunables() dynp2p.Tunables
	Engine() *simnet.Engine
	Handler() *protocol.Handler
	Overlay() *overlay.Overlay
}

// reqKey identifies an active retrieval: the protocol allows one active
// search per (node, key).
type reqKey struct {
	id  dynp2p.NodeID
	key uint64
}

// pendingStore is a store waiting for its committee to appear.
type pendingStore struct {
	key    uint64
	issued int // round of the latest attempt
}

// storeConfirmRounds is how long a store may take to show a committee
// before it is issued again (routed invitations walk for a few rounds).
const storeConfirmRounds = 8

// tally counts the load generator's operations. Every issued retrieval
// ends in exactly one of ok, timeout, corrupt, lost or unresolved. Only
// corrupt is a wrong answer; the other three are misses the model allows
// with small probability, and all four lower success_rate.
type tally struct {
	StoresIssued  int
	StoresSkipped int // arrivals after every key was stored
	StoreRetries  int // stores issued again because no committee appeared
	Issued        int // retrievals issued
	Skipped       int // retrieval arrivals with nothing stored or every candidate issuer busy
	OK            int // verified bytes returned
	Timeout       int // search expired without finding the item
	Corrupt       int // bytes came back but did not verify, or a result nobody asked for
	Lost          int // issuer churned out before reporting
	Unresolved    int // still in flight when the drain ended
	CachedOK      int // successes served from a cache
}

// driver is the open-loop load generator: the internal/scenario runner's
// rules (Poisson arrivals per simulated round from one workload stream,
// Zipf key choice, uniform random issuer, stores from the oldest of four
// random slots, one active search per (node, key)) restated so the traced
// and untraced stacks share it. Load is open-loop in simulated time;
// latency is counted in rounds from the issuing round, so a generator
// that works in discrete rounds cannot run late.
//
// Two departures from that runner keep the work of a run the same from
// seed to seed. A phase's arrivals are a Poisson process conditioned on
// its expected count: the total is fixed at rate x rounds and each arrival
// falls in a uniformly random round. And a key is offered for retrieval
// only once its storage committee exists: a store whose issuer was churned
// out before it could act is issued again from another node, as an
// application that confirms its writes would.
type driver struct {
	w    workload
	st   stack
	wr   *rng.Stream
	zipf *rng.Zipf

	payload     map[uint64][]byte
	stored      []uint64       // keys confirmed stored, in confirmation order
	unconfirmed []pendingStore // stores issued, committee not yet seen
	nextKey     int
	outstanding map[reqKey]int // -> issuing round

	// Arrivals of the current phase, per round.
	storeArrivals, retrieveArrivals []int
	phaseRound                      int

	tally     tally
	latencies []int  // rounds, successes only
	opsHash   uint64 // order-independent hash of every op event, for sim_digest
	issueNS   int64  // host time spent generating and issuing load
	results   []dynp2p.Result
}

func newDriver(w workload, st stack, seed uint64) *driver {
	return &driver{
		w: w, st: st,
		wr:          rng.Derive(seed, 0x3ce7a410),
		zipf:        rng.NewZipf(w.keys, w.zipfS),
		payload:     make(map[uint64][]byte, w.keys),
		outstanding: make(map[reqKey]int),
	}
}

// Op event kinds mixed into opsHash.
const (
	evStore = iota + 1
	evIssue
	evDone
	evLost
	evUnresolved
)

func (d *driver) note(kind int, round int, id dynp2p.NodeID, key uint64, extra uint64) {
	d.opsHash += rng.Hash(uint64(kind), uint64(round), uint64(id), key, extra)
}

// begin draws the arrival rounds of a phase.
func (d *driver) begin(p phase) {
	d.storeArrivals = d.arrivals(p.storeRate, p.rounds)
	d.retrieveArrivals = d.arrivals(p.retrieveRate, p.rounds)
	d.phaseRound = 0
}

// arrivals places round(rate x rounds) arrivals in uniformly random rounds.
func (d *driver) arrivals(rate float64, rounds int) []int {
	per := make([]int, rounds)
	for i, n := 0, int(math.Round(rate*float64(rounds))); i < n; i++ {
		per[d.wr.Intn(rounds)]++
	}
	return per
}

// step issues one round of the phase's load, advances the stack one round
// and accounts for what completed.
func (d *driver) step() {
	t0 := time.Now()
	d.confirmStores()
	d.issueStores(d.storeArrivals[d.phaseRound])
	d.issueRetrieves(d.retrieveArrivals[d.phaseRound])
	d.phaseRound++
	d.issueNS += time.Since(t0).Nanoseconds()
	d.st.Run(1)
	d.collect()
}

func (d *driver) issueStores(n int) {
	for i := 0; i < n; i++ {
		if d.nextKey >= d.w.keys {
			d.tally.StoresSkipped++
			continue
		}
		key := keyFor(d.nextKey)
		d.nextKey++
		d.payload[key] = d.w.itemData(key)
		d.store(key)
		d.unconfirmed = append(d.unconfirmed, pendingStore{key: key, issued: d.st.Round()})
		d.tally.StoresIssued++
	}
}

func (d *driver) store(key uint64) {
	slot := d.pickOldSlot()
	d.note(evStore, d.st.Round(), d.st.Engine().IDAt(slot), key, 0)
	d.st.Store(slot, key, d.payload[key])
}

// confirmStores moves keys whose committee has appeared to the retrievable
// set and issues overdue stores again.
func (d *driver) confirmStores() {
	kept := d.unconfirmed[:0]
	for _, ps := range d.unconfirmed {
		switch {
		case len(d.st.Handler().CommitteeSlots(ps.key)) > 0:
			d.stored = append(d.stored, ps.key)
		case d.st.Round()-ps.issued >= storeConfirmRounds:
			d.store(ps.key)
			d.tally.StoreRetries++
			kept = append(kept, pendingStore{key: ps.key, issued: d.st.Round()})
		default:
			kept = append(kept, ps)
		}
	}
	d.unconfirmed = kept
}

func (d *driver) issueRetrieves(n int) {
	e := d.st.Engine()
	for i := 0; i < n; i++ {
		if len(d.stored) == 0 {
			d.tally.Skipped++
			continue
		}
		key := d.stored[d.zipf.Next(d.wr)%len(d.stored)]
		placed := false
		for try := 0; try < 8 && !placed; try++ {
			slot := d.wr.Intn(d.w.n)
			k := reqKey{id: e.IDAt(slot), key: key}
			if _, busy := d.outstanding[k]; busy {
				continue
			}
			d.outstanding[k] = d.st.Round()
			d.note(evIssue, d.st.Round(), k.id, key, 0)
			// expect is passed so the protocol itself verifies the bytes.
			d.st.Retrieve(slot, key, d.payload[key])
			placed = true
		}
		if placed {
			d.tally.Issued++
		} else {
			d.tally.Skipped++
		}
	}
}

// collect consumes completed retrievals and reaps those whose issuer was
// churned out (departed nodes report nothing: the model's failure mode).
func (d *driver) collect() {
	d.results = append(d.results[:0], d.st.Results()...)
	// Handlers run in parallel and append results under a lock, so their
	// order within a round is not part of the simulation's outcome.
	sort.Slice(d.results, func(i, j int) bool {
		a, b := &d.results[i], &d.results[j]
		if a.Searcher != b.Searcher {
			return a.Searcher < b.Searcher
		}
		return a.Key < b.Key
	})
	for _, res := range d.results {
		k := reqKey{id: res.Searcher, key: res.Key}
		issued, known := d.outstanding[k]
		if !known {
			d.tally.Corrupt++
			continue
		}
		delete(d.outstanding, k)
		var flags uint64
		if res.Success {
			lat := res.Done - issued
			d.latencies = append(d.latencies, lat)
			d.tally.OK++
			flags = 1 | uint64(lat)<<8
			if res.Cached {
				d.tally.CachedOK++
				flags |= 2
			}
		} else if res.Done < 0 {
			d.tally.Timeout++
		} else {
			d.tally.Corrupt++
			flags = 4
		}
		d.note(evDone, issued, k.id, k.key, flags)
	}
	e := d.st.Engine()
	for k, issued := range d.outstanding {
		if !e.IsLive(k.id) {
			delete(d.outstanding, k)
			d.tally.Lost++
			d.note(evLost, issued, k.id, k.key, 0)
		}
	}
}

// finish counts what is still in flight after the drain.
func (d *driver) finish() {
	for k, issued := range d.outstanding {
		d.tally.Unresolved++
		d.note(evUnresolved, issued, k.id, k.key, 0)
	}
	sort.Ints(d.latencies)
}

// checkAccounting asserts that every issued retrieval has one outcome and
// none came back wrong.
func (d *driver) checkAccounting() error {
	t := d.tally
	if t.Issued != t.OK+t.Timeout+t.Lost+t.Unresolved || t.Corrupt != 0 {
		return fmt.Errorf("retrieval accounting: issued %d != ok %d + timeout %d + lost %d + unresolved %d (corrupt %d)",
			t.Issued, t.OK, t.Timeout, t.Lost, t.Unresolved, t.Corrupt)
	}
	return nil
}

// itemsAlive counts stored items that still have a live committee and
// enough copies to be read back (K pieces under erasure coding, else 1).
func (d *driver) itemsAlive() int {
	need := max(1, d.w.erasureK)
	h := d.st.Handler()
	alive := 0
	for _, key := range d.stored {
		if len(h.CommitteeSlots(key)) > 0 && h.CopyCount(key) >= need {
			alive++
		}
	}
	return alive
}

// pickOldSlot returns the oldest of four random slots: the paper's
// storage guarantee holds for nodes that have been in the network a
// while, not for newcomers.
func (d *driver) pickOldSlot() int {
	e := d.st.Engine()
	best := d.wr.Intn(d.w.n)
	bestJoin := e.JoinRound(best)
	for i := 0; i < 3; i++ {
		s := d.wr.Intn(d.w.n)
		if jr := e.JoinRound(s); jr < bestJoin {
			best, bestJoin = s, jr
		}
	}
	return best
}

// quantile returns the q-quantile of sorted integer samples, spreading
// each value v uniformly over [v-0.5, v+0.5) so that the estimate moves
// smoothly with the share of samples at the median's value instead of
// jumping by a whole round. Returns 0 on no samples.
func quantile(sorted []int, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	i := min(int(rank), n-1)
	v := sorted[i]
	lo := sort.SearchInts(sorted, v)
	hi := sort.SearchInts(sorted, v+1)
	return float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)
}
