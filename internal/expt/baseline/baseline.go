// Package baseline holds the two systems the paper argues its design
// against (§1.3, §4), run under the same dynamic-network engine and the
// same adversarial churn as the paper's protocol: a Chord-like DHT
// (ChordHandler) and naïve flooding (FloodHandler). Only the experiment
// tables use them: E09 sets flooding's Θ(n) messages per store against the
// protocol's polylog bits per node, and E12 sets the DHT's and flooding's
// lookups against the protocol's under rising churn. The comparison is the
// paper's motivation — flooding does not scale and DHTs carry no guarantee
// under heavy churn — so the baselines stay beside the tables that state
// it.
//
// Both baselines book their lookups in one ledger (ops): an operation is
// begun under a mark, succeeds when the answer reaches its searcher, and
// fails when its deadline passes first.
package baseline

import (
	"sync"

	"dynp2p/internal/simnet"
)

// Result records one resolved lookup. Done is -1 for a lookup that
// expired. Hops counts the network hops a DHT lookup's find/reply chain
// traversed; flooding leaves it 0.
type Result struct {
	Searcher simnet.NodeID
	Key      uint64
	Start    int
	Done     int
	Success  bool
	Hops     int
}

// ops is the open-operation ledger. A lookup is marked key^searcher;
// finish records a mark's success once, and DrainResults expires every
// mark whose deadline has come. Handlers call finish from parallel
// HandleRounds, hence the mutex.
type ops struct {
	mu      sync.Mutex
	open    map[uint64]openOp
	results []Result
}

type openOp struct {
	searcher simnet.NodeID
	key      uint64
	start    int
	deadline int
}

// begin opens a lookup for key by searcher at round start, failing at
// deadline, and returns its mark.
func (o *ops) begin(searcher simnet.NodeID, key uint64, start, deadline int) uint64 {
	mark := key ^ uint64(searcher)
	o.mu.Lock()
	o.open[mark] = openOp{searcher: searcher, key: key, start: start, deadline: deadline}
	o.mu.Unlock()
	return mark
}

// finish records the lookup under mark as succeeded at round after hops
// hops. A mark that is not open (never begun, finished, or expired) is
// ignored.
func (o *ops) finish(mark uint64, round, hops int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	op, ok := o.open[mark]
	if !ok {
		return
	}
	delete(o.open, mark)
	o.results = append(o.results, Result{
		Searcher: op.searcher, Key: op.key, Start: op.start, Done: round, Success: true, Hops: hops,
	})
}

// DrainResults returns the lookups resolved so far, first failing every
// open one whose deadline is at or before round. Call between rounds.
func (o *ops) DrainResults(round int) []Result {
	o.mu.Lock()
	defer o.mu.Unlock()
	for mark, op := range o.open {
		if round >= op.deadline {
			delete(o.open, mark)
			o.results = append(o.results, Result{
				Searcher: op.searcher, Key: op.key, Start: op.start, Done: -1,
			})
		}
	}
	r := o.results
	o.results = nil
	return r
}
