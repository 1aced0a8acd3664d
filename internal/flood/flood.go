// Package flood implements the naïve baseline the paper dismisses in §4:
// store an item by flooding it to every node, and search by flooding a
// query. It is correct and fast on a static expander (diameter O(log n)),
// but it costs Θ(n) messages per operation and Θ(n·|I|) total storage —
// the scalability wall that motivates the committee/landmark design.
// Experiments E9 and E12 quantify the comparison.
//
// Under churn a flooded item also *decays*: the flood is one-shot, so
// replacement nodes never receive old items, and copy counts erode at the
// churn rate — flooding buys no persistence without continuous re-flooding.
package flood

import (
	"sync"

	"dynp2p/internal/simnet"
)

// Message kinds.
const (
	// KindStore carries an item copy to be stored and re-flooded.
	KindStore uint8 = 0x50
	// KindQuery floods a search; Aux2 = searcher id.
	KindQuery uint8 = 0x51
	// KindReply answers a query directly to the searcher.
	KindReply uint8 = 0x52
)

// Result records a completed flood search.
type Result struct {
	Searcher simnet.NodeID
	Key      uint64
	Start    int
	Done     int
	Success  bool
}

// Handler is the flooding baseline protocol.
type Handler struct {
	states []state

	mu      sync.Mutex
	results []Result
	open    map[uint64]openSearch // key^searcher -> search bookkeeping
}

type openSearch struct {
	searcher simnet.NodeID
	key      uint64
	start    int
	deadline int
}

type state struct {
	items     map[uint64][]byte
	seenQuery map[uint64]bool // key^searcher marks
	fwdItems  []uint64        // items to forward to neighbours this round
	fwdQuery  []fq
}

type fq struct {
	key      uint64
	searcher simnet.NodeID
}

// NewHandler creates the baseline handler for an engine of n slots.
func NewHandler(n int) *Handler {
	return &Handler{states: make([]state, n), open: make(map[uint64]openSearch)}
}

// OnJoin implements simnet.Handler.
func (h *Handler) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	h.states[slot] = state{
		items:     make(map[uint64][]byte),
		seenQuery: make(map[uint64]bool),
	}
}

// OnLeave implements simnet.Handler.
func (h *Handler) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {}

// RequestStore floods (key, data) from the node at slot. Call between
// rounds.
func (h *Handler) RequestStore(e *simnet.Engine, slot int, key uint64, data []byte) {
	st := &h.states[slot]
	st.items[key] = append([]byte(nil), data...)
	st.fwdItems = append(st.fwdItems, key)
}

// RequestSearch floods a query for key from the node at slot. Call between
// rounds. ttl bounds the rounds until the search is recorded as failed.
func (h *Handler) RequestSearch(e *simnet.Engine, slot int, key uint64, ttl int) {
	st := &h.states[slot]
	id := e.IDAt(slot)
	mark := key ^ uint64(id)
	st.seenQuery[mark] = true
	st.fwdQuery = append(st.fwdQuery, fq{key: key, searcher: id})
	h.mu.Lock()
	h.open[mark] = openSearch{searcher: id, key: key, start: e.Round(), deadline: e.Round() + ttl}
	h.mu.Unlock()
	// Local hit resolves immediately.
	if _, ok := st.items[key]; ok {
		h.finish(mark, e.Round(), true)
	}
}

func (h *Handler) finish(mark uint64, round int, success bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o, ok := h.open[mark]
	if !ok {
		return
	}
	delete(h.open, mark)
	h.results = append(h.results, Result{
		Searcher: o.searcher, Key: o.key, Start: o.start, Done: round, Success: success,
	})
}

// DrainResults returns finished searches, expiring overdue ones first.
// Call between rounds.
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

// CopyCount returns the number of nodes holding key.
func (h *Handler) CopyCount(key uint64) int {
	c := 0
	for i := range h.states {
		if _, ok := h.states[i].items[key]; ok {
			c++
		}
	}
	return c
}

// HandleRound implements simnet.Handler.
func (h *Handler) HandleRound(ctx *simnet.Ctx) {
	st := &h.states[ctx.Slot]

	for i := range ctx.Inbox {
		m := &ctx.Inbox[i]
		switch m.Kind {
		case KindStore:
			if _, ok := st.items[m.Item]; !ok {
				st.items[m.Item] = append([]byte(nil), m.Blob()...)
				st.fwdItems = append(st.fwdItems, m.Item)
			}
		case KindQuery:
			mark := m.Item ^ uint64(m.Aux2)
			if st.seenQuery[mark] {
				break
			}
			st.seenQuery[mark] = true
			if data, ok := st.items[m.Item]; ok {
				reply := ctx.SendMsg(simnet.NodeID(m.Aux2), KindReply)
				reply.Item = m.Item
				ctx.SetPayload(reply, nil, data)
			}
			st.fwdQuery = append(st.fwdQuery, fq{key: m.Item, searcher: simnet.NodeID(m.Aux2)})
		case KindReply:
			h.finish(m.Item^uint64(ctx.ID), ctx.Round, true)
		}
	}

	// Forward pending floods to all current neighbours.
	if len(st.fwdItems) > 0 || len(st.fwdQuery) > 0 {
		var neighbors []simnet.NodeID
		neighbors = ctx.NeighborIDs(neighbors)
		for _, key := range st.fwdItems {
			for _, nb := range neighbors {
				m := ctx.SendMsg(nb, KindStore)
				m.Item = key
				ctx.SetPayload(m, nil, st.items[key])
			}
		}
		for _, q := range st.fwdQuery {
			for _, nb := range neighbors {
				m := ctx.SendMsg(nb, KindQuery)
				m.Item, m.Aux2 = q.key, uint64(q.searcher)
			}
		}
		st.fwdItems = st.fwdItems[:0]
		st.fwdQuery = st.fwdQuery[:0]
	}
}
