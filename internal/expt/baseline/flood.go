package baseline

import "dynp2p/internal/simnet"

// Flooding message kinds (0x50 range).
const (
	// KindFloodStore carries an item copy to be stored and re-flooded.
	KindFloodStore uint8 = 0x50
	// KindQuery floods a search; Aux2 = searcher id.
	KindQuery uint8 = 0x51
	// KindReply answers a query directly to the searcher.
	KindReply uint8 = 0x52
)

// FloodHandler is the naïve baseline the paper dismisses in §4: store an
// item by flooding it to every node, and search by flooding a query. It is
// correct and fast on a static expander (diameter O(log n)), but it costs
// Θ(n) messages per operation and Θ(n·|I|) total storage — the
// scalability wall that motivates the committee/landmark design.
//
// Under churn a flooded item also *decays*: the flood is one-shot, so
// replacement nodes never receive old items, and copy counts erode at the
// churn rate — flooding buys no persistence without continuous re-flooding.
type FloodHandler struct {
	ops
	states []floodState
}

type floodState struct {
	items     map[uint64][]byte
	seenQuery map[uint64]bool // key^searcher marks
	fwdItems  []uint64        // items to forward to neighbours this round
	fwdQuery  []fq
}

type fq struct {
	key      uint64
	searcher simnet.NodeID
}

// NewFlood creates the flooding handler for an engine of n slots.
func NewFlood(n int) *FloodHandler {
	return &FloodHandler{ops: ops{open: make(map[uint64]openOp)}, states: make([]floodState, n)}
}

// OnJoin implements simnet.Handler.
func (h *FloodHandler) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	h.states[slot] = floodState{
		items:     make(map[uint64][]byte),
		seenQuery: make(map[uint64]bool),
	}
}

// OnLeave implements simnet.Handler.
func (h *FloodHandler) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {}

// RequestStore floods (key, data) from the node at slot. Call between
// rounds.
func (h *FloodHandler) RequestStore(e *simnet.Engine, slot int, key uint64, data []byte) {
	st := &h.states[slot]
	st.items[key] = append([]byte(nil), data...)
	st.fwdItems = append(st.fwdItems, key)
}

// RequestGet floods a query for key from the node at slot, failing ttl
// rounds from now. Call between rounds.
func (h *FloodHandler) RequestGet(e *simnet.Engine, slot int, key uint64, ttl int) {
	st := &h.states[slot]
	id := e.IDAt(slot)
	mark := h.begin(id, key, e.Round(), e.Round()+ttl)
	st.seenQuery[mark] = true
	st.fwdQuery = append(st.fwdQuery, fq{key: key, searcher: id})
	// Local hit resolves immediately.
	if _, ok := st.items[key]; ok {
		h.finish(mark, e.Round(), 0)
	}
}

// HandleRound implements simnet.Handler.
func (h *FloodHandler) HandleRound(ctx *simnet.Ctx) {
	st := &h.states[ctx.Slot]

	for i := range ctx.Inbox {
		m := &ctx.Inbox[i]
		switch m.Kind {
		case KindFloodStore:
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
			h.finish(m.Item^uint64(ctx.ID), ctx.Round, 0)
		}
	}

	// Forward pending floods to all current neighbours.
	if len(st.fwdItems) > 0 || len(st.fwdQuery) > 0 {
		var neighbors []simnet.NodeID
		neighbors = ctx.NeighborIDs(neighbors)
		for _, key := range st.fwdItems {
			for _, nb := range neighbors {
				m := ctx.SendMsg(nb, KindFloodStore)
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
