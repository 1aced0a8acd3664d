package protocol

import (
	"slices"

	"dynp2p/internal/simnet"
)

// maybeWave starts a storage landmark-construction wave if one is due for
// the membership (Algorithm 2): when the member joins, and every WaveEvery
// rounds from the committee's base round. Each member roots its own sampling
// tree; the trees' nodes become landmarks that know the committee roster.
func (h *Handler) maybeWave(ctx *simnet.Ctx, st *nodeState, m *membership) {
	round := ctx.Round
	if round != m.joined && (round <= m.base || (round-m.base)%h.P.WaveEvery != 0) {
		return
	}
	h.ctr.waves.Inc(ctx.Shard)
	// The member itself is a landmark for its item.
	st.registerLandmark(m.key, lmEntry{
		roster: m.roster, expiry: round + h.P.LandmarkTTL, wave: round,
	})
	h.growChildren(ctx, st, KindLGrow, m.key, 0, m.roster, h.P.TreeDepth, round, m.trace)
}

// registerLandmark makes the node a storage landmark for key, replacing any
// earlier registration. A new wave usually carries the roster the node
// already knows: the replacement then keeps the earlier one's KindSFound
// stamp, so a grow landing between two inquiries does not tell the searcher
// the same roster twice in a round. A new roster is told at once.
func (st *nodeState) registerLandmark(key uint64, ent lmEntry) {
	if old := st.storageLM.get(key); old != nil && slices.Equal(old.roster, ent.roster) {
		ent.toldAt, ent.toldTo = old.toldAt, old.toldTo
	}
	st.storageLM.put(key, ent)
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
		m.Trace = trace
		ctx.SetPayload(m, roster, nil)
	}
	h.ctr.growSent.Add(ctx.Shard, int64(len(children)))
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
		ent.expiry = max(ent.expiry, ctx.Round+h.P.LandmarkTTL)
		return
	}
	st.registerLandmark(key, lmEntry{
		roster: slices.Clone(msg.IDs()),
		expiry: ctx.Round + h.P.LandmarkTTL,
		wave:   wave,
	})
	h.growChildren(ctx, st, KindLGrow, key, 0, msg.IDs(), depth, wave, msg.Trace)
}

// onSearchGrow is onGrow for a search landmark tree, whose first level is
// the search committee: the node takes up the search task and leaves the
// growing to its tick (tickSearchLandmarks), which remembers the children,
// whom it passes the search's KindSDone on to.
func (h *Handler) onSearchGrow(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	depth, wave := unpackGrow(msg.Aux)
	key, searcher := msg.Item, simnet.NodeID(msg.Aux2)
	if t := findSearchTask(st, key, searcher); t != nil && t.wave == wave {
		t.expiry = max(t.expiry, ctx.Round+h.P.LandmarkTTL)
		return
	}
	h.addSearchTask(st, key, searcher, ctx.Round, wave, msg.Trace).grow = depth
}

// addSearchTask registers this node as a search landmark for (key,
// searcher), creating or refreshing the task; wave is the round its tree
// was rooted (the current round for a task no tree delivered). The task it
// returns is valid until the node's next addSearchTask.
func (h *Handler) addSearchTask(st *nodeState, key uint64, searcher simnet.NodeID, round, wave int, trace uint64) *searchTask {
	if t := findSearchTask(st, key, searcher); t != nil {
		t.expiry = max(t.expiry, round+h.P.LandmarkTTL)
		t.wave = wave
		if trace != 0 {
			t.trace = trace
		}
		return t
	}
	tasks := st.searchLM.get(key)
	if tasks == nil {
		tasks = st.searchLM.put(key, nil)
	}
	*tasks = append(*tasks, searchTask{
		searcher: searcher, expiry: round + h.P.LandmarkTTL, wave: wave, trace: trace,
	})
	return &(*tasks)[len(*tasks)-1]
}

func findSearchTask(st *nodeState, key uint64, searcher simnet.NodeID) *searchTask {
	if tasks := st.searchLM.get(key); tasks != nil {
		for i := range *tasks {
			if (*tasks)[i].searcher == searcher {
				return &(*tasks)[i]
			}
		}
	}
	return nil
}
