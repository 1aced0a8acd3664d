package protocol

import (
	"slices"

	"dynp2p/internal/simnet"
)

// maybeWave starts a storage landmark-construction wave if one is due for
// the membership (Algorithm 2): when the member joins, and every Tau
// rounds from the committee's base round. Each member roots its own sampling
// tree; the trees' nodes become landmarks that know the committee roster.
func (h *Handler) maybeWave(ctx *simnet.Ctx, st *nodeState, m *membership) {
	round := ctx.Round
	if round != m.joined && (round <= m.base || (round-m.base)%h.P.Tau != 0) {
		return
	}
	h.ctr.waves.Inc(ctx.Shard)
	h.becomeLandmark(ctx, st, m.key, m.roster, round, h.P.TreeDepth, m.trace)
}

// becomeLandmark makes the node a storage landmark for key, replacing any
// earlier registration, and grows wave's tree depth more levels below it
// (none at depth 0). A member registers when it is invited and roots a
// tree at each wave; a tree node registers when the tree reaches it. A new
// wave usually carries the roster the node already knows: the replacement
// then keeps the earlier one's KindSFound stamp, so a grow landing between
// two inquiries does not tell the searcher the same roster twice in a
// round. A new roster is told at once.
func (h *Handler) becomeLandmark(ctx *simnet.Ctx, st *nodeState, key uint64, roster []simnet.NodeID, wave, depth int, trace uint64) {
	ent := lmEntry{roster: roster, expiry: ctx.Round + h.P.LandmarkTTL(), wave: wave}
	if old := st.storageLM.get(key); old != nil && slices.Equal(old.roster, roster) {
		ent.toldAt, ent.toldTo = old.toldAt, old.toldTo
	}
	st.storageLM.put(&h.slabs[ctx.Shard], key, ent)
	h.growChildren(ctx, st, KindLGrow, key, 0, roster, depth, wave, trace)
}

// growChildren sends tree-growth invitations of the given kind to TreeFanout
// recent walk samples ("node v contacts its received sample nodes and adds 2
// nodes that are not yet part of the tree as its children") and returns the
// children (0 = none).
func (h *Handler) growChildren(ctx *simnet.Ctx, st *nodeState, kind uint8, key, aux2 uint64,
	roster []simnet.NodeID, depth, wave int, trace uint64) (kids [TreeFanout]simnet.NodeID) {
	if depth <= 0 {
		return kids
	}
	children := st.recentDistinct(kids[:0], TreeFanout)
	for _, child := range children {
		m := ctx.SendMsg(child, kind)
		m.Item, m.Aux, m.Aux2 = key, packGrow(depth-1, wave), aux2
		ctx.SetTrace(m, trace)
		ctx.SetPayload(m, roster, nil)
	}
	return kids
}

// onGrow handles a storage tree-growth invitation: the node becomes a
// landmark for the item and recursively extends the tree unless it was
// already recruited into this wave (the paper's "not yet part of the
// tree" rule, enforced at the receiver).
func (h *Handler) onGrow(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	depth, wave := unpackGrow(msg.Aux)
	key := msg.Item
	if ent := st.storageLM.get(key); ent != nil && ent.wave == wave {
		// Already in this wave's tree: refresh, do not extend.
		ent.expiry = max(ent.expiry, ctx.Round+h.P.LandmarkTTL())
		return
	}
	// The roster is immutable once sent: every landmark of the wave keeps
	// the member's own array.
	h.becomeLandmark(ctx, st, key, msg.IDs(), wave, depth, msg.Trace())
}

// onSearchGrow is onGrow for a search landmark tree, whose first level is
// the search committee: the node takes up the search task and leaves the
// growing to its tick (tickSearchLandmarks), which remembers the children,
// whom it passes the search's KindSDone on to.
func (h *Handler) onSearchGrow(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	depth, wave := unpackGrow(msg.Aux)
	key, searcher := msg.Item, simnet.NodeID(msg.Aux2)
	if t := findSearchTask(st, key, searcher); t != nil && t.wave == wave {
		t.expiry = max(t.expiry, ctx.Round+h.P.LandmarkTTL())
		return
	}
	h.addSearchTask(ctx, st, key, searcher, wave, msg.Trace()).grow = depth
}

// addSearchTask registers this node as a search landmark for (key,
// searcher), creating or refreshing the task; wave is the round its tree
// was rooted (the current round for a task no tree delivered). A new task
// goes after the key's others, so a key's tasks stay in arrival order. The
// task it returns is valid until the node's next addSearchTask.
func (h *Handler) addSearchTask(ctx *simnet.Ctx, st *nodeState, key uint64, searcher simnet.NodeID, wave int, trace uint64) *searchTask {
	round := ctx.Round
	if t := findSearchTask(st, key, searcher); t != nil {
		t.expiry = max(t.expiry, round+h.P.LandmarkTTL())
		t.wave = wave
		if trace != 0 {
			t.trace = trace
		}
		return t
	}
	return st.searchLM.add(&h.slabs[ctx.Shard], key, searchTask{
		searcher: searcher, expiry: round + h.P.LandmarkTTL(), wave: wave, trace: trace,
	})
}

// findSearchTask returns the node's task for (key, searcher), or nil.
func findSearchTask(st *nodeState, key uint64, searcher simnet.NodeID) *searchTask {
	if i := searchTaskAt(st, key, searcher); i >= 0 {
		return &st.searchLM.vals[i]
	}
	return nil
}

// searchTaskAt returns the index in st.searchLM of the task for (key,
// searcher), or -1.
func searchTaskAt(st *nodeState, key uint64, searcher simnet.NodeID) int {
	lo, hi := st.searchLM.span(key)
	for i := lo; i < hi; i++ {
		if st.searchLM.vals[i].searcher == searcher {
			return i
		}
	}
	return -1
}
