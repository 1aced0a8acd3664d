package baseline

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"dynp2p/internal/simnet"
)

// Chord message kinds (0x60 range).
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
	// KindChordStore hands an item to its responsible node. Blob = data.
	KindChordStore uint8 = 0x65
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

type chordState struct {
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
func (st *chordState) seen(id simnet.NodeID, round int) { st.lastSeen[id] = round }

type pendingStore struct {
	key  uint64
	data []byte
}

// ChordHandler is the structured-overlay baseline of §1.3: a Chord-like
// distributed hash table with successor-list replication, finger-table
// routing, and per-round stabilisation.
//
// The comparison is deliberately generous to the DHT: the overlay starts
// perfectly converged (Bootstrap), stabilisation runs every round, and
// every holder of an item re-replicates it periodically. E12 shows that
// lookups nevertheless collapse at churn rates the paper's
// committee/landmark design tolerates — the paper's core motivation
// ("DHT schemes have no provable performance guarantees under large
// adversarial churn").
type ChordHandler struct {
	ops
	states []chordState
	ttl    int
}

// NewChord creates a DHT handler for n slots; lookups carry a hop TTL
// derived from n.
func NewChord(n int) *ChordHandler {
	return &ChordHandler{
		ops:    ops{open: make(map[uint64]openOp)},
		states: make([]chordState, n),
		ttl:    2*bits.Len(uint(n-1)) + 10, // 2·⌈log₂ n⌉ + 10
	}
}

// Bootstrap initialises a perfectly converged ring over the engine's
// current population: correct successor lists, predecessors, and fingers.
// Call once after simnet.New and the initial round-0 joins.
func (h *ChordHandler) Bootstrap(e *simnet.Engine) {
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
func (h *ChordHandler) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	h.states[slot] = chordState{
		pt:       Point(uint64(id)),
		items:    make(map[uint64][]byte),
		lastSeen: make(map[simnet.NodeID]int),
	}
}

// OnLeave implements simnet.Handler.
func (h *ChordHandler) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {}

// RequestStore routes (key, data) to its responsible node. Call between
// rounds; the store is fired from the given slot next round.
func (h *ChordHandler) RequestStore(e *simnet.Engine, slot int, key uint64, data []byte) {
	st := &h.states[slot]
	// Queue as a self-addressed pending find executed in HandleRound.
	st.pendingStores = append(st.pendingStores, pendingStore{key: key, data: append([]byte(nil), data...)})
}

// RequestGet starts a lookup for key from the node at slot, failing
// ttlRounds rounds from now. Call between rounds.
func (h *ChordHandler) RequestGet(e *simnet.Engine, slot int, key uint64, ttlRounds int) {
	st := &h.states[slot]
	st.pendingGets = append(st.pendingGets, key)
	h.begin(e.IDAt(slot), key, e.Round(), e.Round()+ttlRounds)
}

// RingHealth returns the fraction of live nodes whose successor pointer
// agrees with the true ring (a convergence diagnostic for experiments).
func (h *ChordHandler) RingHealth(e *simnet.Engine) float64 {
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
