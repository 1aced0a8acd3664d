// Package dht implements the structured-overlay baseline of §1.3: a
// Chord-like distributed hash table with successor-list replication,
// finger-table routing, and per-round stabilisation, running under the
// same dynamic-network engine and the same adversarial churn as the
// paper's protocol.
//
// The comparison is deliberately generous to the DHT: the overlay starts
// perfectly converged (Bootstrap), stabilisation runs every round, and
// every holder of an item re-replicates it periodically. Experiment E12
// shows that lookups nevertheless collapse at churn rates the paper's
// committee/landmark design tolerates — the paper's core motivation
// ("DHT schemes have no provable performance guarantees under large
// adversarial churn").
package dht

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"dynp2p/internal/simnet"
)

// Message kinds (0x60 range).
const (
	// KindFind routes a lookup toward the successor of a target point.
	// Item = key (or raw point), Aux = packFind(purpose, ttl, finger
	// index), Aux2 = origin id, Blob = item data for store lookups.
	KindFind uint8 = 0x60
	// KindFound answers a join/finger lookup. IDs = [responsible, its
	// successors...], Aux = finger index (finger purpose).
	KindFound uint8 = 0x61
	// KindGetSuccs asks a successor for its predecessor+successor list.
	KindGetSuccs uint8 = 0x62
	// KindSuccs is the stabilisation reply: IDs = [pred, succs...].
	KindSuccs uint8 = 0x63
	// KindNotify tells a node about a possible new predecessor.
	KindNotify uint8 = 0x64
	// KindStore hands an item to its responsible node. Blob = data.
	KindStore uint8 = 0x65
	// KindRepl replicates an item to a successor. Blob = data.
	KindRepl uint8 = 0x66
	// KindData returns item data to a searcher.
	KindData uint8 = 0x67
)

// Lookup purposes inside KindFind.
const (
	purposeJoin uint8 = iota + 1
	purposeFinger
	purposeStore
	purposeGet
)

func packFind(purpose uint8, ttl, finger int) uint64 {
	return uint64(purpose) | uint64(uint8(ttl))<<8 | uint64(uint8(finger))<<16
}

func unpackFind(aux uint64) (purpose uint8, ttl, finger int) {
	return uint8(aux), int(uint8(aux >> 8)), int(uint8(aux >> 16))
}

// Point maps a node id or item key to the identifier ring.
func Point(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// between reports whether x lies in the clockwise interval (a, b] on the
// ring.
func between(a, x, b uint64) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b // interval wraps
}

// clockwise returns the clockwise distance from a to b.
func clockwise(a, b uint64) uint64 { return b - a }

const (
	numFingers  = 24 // finger i targets pt + 2^(63-i)
	succListLen = 8
	stabTimeout = 4 // rounds without a successor reply before dropping it
	replEvery   = 4 // rounds between item re-replications
)

type peer struct {
	id simnet.NodeID
	pt uint64
}

type state struct {
	pt         uint64
	joined     bool
	succs      []peer
	pred       peer
	predSeen   int // round the predecessor last gave a sign of life
	fingers    [numFingers]peer
	nextFinger int
	probeIdx   int                   // rotating successor-liveness probe index
	lastSeen   map[simnet.NodeID]int // per-peer sign-of-life rounds
	items      map[uint64][]byte
	lastRepl   int

	pendingStores []pendingStore
	pendingGets   []uint64
}

// seen records a sign of life from a peer.
func (st *state) seen(id simnet.NodeID, round int) {
	if st.lastSeen == nil {
		st.lastSeen = make(map[simnet.NodeID]int)
	}
	st.lastSeen[id] = round
}

type pendingStore struct {
	key  uint64
	data []byte
}

// Result records a completed DHT lookup. Hops counts the network hops
// the lookup's find/reply chain traversed (0 for expired lookups).
type Result struct {
	Searcher simnet.NodeID
	Key      uint64
	Start    int
	Done     int
	Success  bool
	Hops     int
}

// Handler is the DHT baseline protocol.
type Handler struct {
	states []state
	ttl    int

	mu      sync.Mutex
	results []Result
	open    map[uint64]openGet
}

type openGet struct {
	searcher simnet.NodeID
	key      uint64
	start    int
	deadline int
}

// NewHandler creates a DHT handler for n slots; lookups carry a hop TTL
// derived from n.
func NewHandler(n int) *Handler {
	ttl := 2*log2ceil(n) + 10
	return &Handler{states: make([]state, n), ttl: ttl, open: make(map[uint64]openGet)}
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// Bootstrap initialises a perfectly converged ring over the engine's
// current population: correct successor lists, predecessors, and fingers.
// Call once after simnet.New and the initial round-0 joins.
func (h *Handler) Bootstrap(e *simnet.Engine) {
	n := e.N()
	ring := make([]peer, n)
	for s := 0; s < n; s++ {
		id := e.IDAt(s)
		ring[s] = peer{id: id, pt: Point(uint64(id))}
	}
	slices.SortFunc(ring, func(a, b peer) int { return cmp.Compare(a.pt, b.pt) })
	pos := make(map[simnet.NodeID]int, n)
	for i, p := range ring {
		pos[p.id] = i
	}
	for s := 0; s < n; s++ {
		id := e.IDAt(s)
		st := &h.states[s]
		i := pos[id]
		st.pt = ring[i].pt
		st.joined = true
		st.items = make(map[uint64][]byte)
		st.lastSeen = make(map[simnet.NodeID]int)
		st.succs = st.succs[:0]
		for k := 1; k <= succListLen; k++ {
			st.succs = append(st.succs, ring[(i+k)%n])
			st.seen(ring[(i+k)%n].id, 0)
		}
		st.pred = ring[(i-1+n)%n]
		for f := 0; f < numFingers; f++ {
			target := st.pt + uint64(1)<<(63-uint(f))
			// Successor of target via binary search on the sorted ring.
			j := sort.Search(n, func(k int) bool { return ring[k].pt >= target })
			st.fingers[f] = ring[j%n]
		}
	}
}

// OnJoin implements simnet.Handler: replacement nodes run the join
// protocol through their topology neighbours.
func (h *Handler) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	h.states[slot] = state{
		pt:       Point(uint64(id)),
		items:    make(map[uint64][]byte),
		lastSeen: make(map[simnet.NodeID]int),
	}
}

// OnLeave implements simnet.Handler.
func (h *Handler) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {}

// RequestStore routes (key, data) to its responsible node. Call between
// rounds; the store is fired from the given slot next round.
func (h *Handler) RequestStore(e *simnet.Engine, slot int, key uint64, data []byte) {
	st := &h.states[slot]
	// Queue as a self-addressed pending find executed in HandleRound.
	st.pendingStores = append(st.pendingStores, pendingStore{key: key, data: append([]byte(nil), data...)})
}

// RequestGet starts a lookup for key from the node at slot. Call between
// rounds.
func (h *Handler) RequestGet(e *simnet.Engine, slot int, key uint64, ttlRounds int) {
	st := &h.states[slot]
	st.pendingGets = append(st.pendingGets, key)
	id := e.IDAt(slot)
	h.mu.Lock()
	h.open[key^uint64(id)] = openGet{
		searcher: id, key: key, start: e.Round(), deadline: e.Round() + ttlRounds,
	}
	h.mu.Unlock()
}

// DrainResults returns finished lookups, expiring overdue ones. Call
// between rounds.
func (h *Handler) DrainResults(round int) []Result {
	h.mu.Lock()
	for mark, o := range h.open {
		if round >= o.deadline {
			delete(h.open, mark)
			h.results = append(h.results, Result{
				Searcher: o.searcher, Key: o.key, Start: o.start, Done: -1, Success: false,
			})
		}
	}
	r := h.results
	h.results = nil
	h.mu.Unlock()
	return r
}

func (h *Handler) finish(mark uint64, round int, success bool, hops int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o, ok := h.open[mark]
	if !ok {
		return
	}
	delete(h.open, mark)
	h.results = append(h.results, Result{
		Searcher: o.searcher, Key: o.key, Start: o.start, Done: round, Success: success, Hops: hops,
	})
}

// CopyCount returns how many nodes hold key.
func (h *Handler) CopyCount(key uint64) int {
	c := 0
	for i := range h.states {
		if _, ok := h.states[i].items[key]; ok {
			c++
		}
	}
	return c
}

// RingHealth returns the fraction of live nodes whose successor pointer
// agrees with the true ring (a convergence diagnostic for experiments).
func (h *Handler) RingHealth(e *simnet.Engine) float64 {
	n := e.N()
	ring := make([]peer, 0, n)
	for s := 0; s < n; s++ {
		if h.states[s].joined {
			ring = append(ring, peer{id: e.IDAt(s), pt: h.states[s].pt})
		}
	}
	if len(ring) == 0 {
		return 0
	}
	slices.SortFunc(ring, func(a, b peer) int { return cmp.Compare(a.pt, b.pt) })
	pos := make(map[simnet.NodeID]int, len(ring))
	for i, p := range ring {
		pos[p.id] = i
	}
	good := 0
	for s := 0; s < n; s++ {
		st := &h.states[s]
		if !st.joined || len(st.succs) == 0 {
			continue
		}
		i, ok := pos[e.IDAt(s)]
		if !ok {
			continue
		}
		if st.succs[0].id == ring[(i+1)%len(ring)].id {
			good++
		}
	}
	return float64(good) / float64(len(ring))
}
