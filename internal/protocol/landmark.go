package protocol

import (
	"slices"

	"dynp2p/internal/simnet"
)

// maybeWave starts a landmark-construction wave (Algorithm 2) if this is a
// wave round for the membership: at join, and every WaveEvery rounds from
// the committee's base round. Each member roots its own sampling tree; the
// trees' nodes become landmarks that know the committee roster.
func (h *Handler) maybeWave(ctx *simnet.Ctx, st *nodeState, m *membership) {
	round := ctx.Round
	due := round == m.joined
	if !due && round > m.base {
		due = (round-m.base)%h.P.WaveEvery == 0
	}
	if !due {
		return
	}
	h.ctr.waves.Inc(ctx.Shard)
	wave := round

	// The member itself is a landmark for its task.
	switch m.mode {
	case ModeStore:
		st.storageLM.put(m.key, lmEntry{
			roster: m.roster, expiry: round + h.P.LandmarkTTL, wave: wave,
		})
	case ModeSearch:
		h.addSearchTask(st, m.key, m.searcher, round, wave, m.trace)
	}

	h.growChildren(ctx, st, m.key, m.mode, m.searcher, m.roster, h.P.TreeDepth, wave, m.trace)
}

// growChildren sends tree-growth invitations to TreeFanout recent walk
// samples ("node v contacts its received sample nodes and adds 2 nodes
// that are not yet part of the tree as its children"). In search mode the
// caller has registered the node's task, which remembers the children: they
// are whom it passes the search's KindSDone on to.
func (h *Handler) growChildren(ctx *simnet.Ctx, st *nodeState, key uint64,
	mode Mode, searcher simnet.NodeID, roster []simnet.NodeID, depth, wave int, trace uint64) {
	if depth <= 0 {
		return
	}
	var kids [TreeFanout]simnet.NodeID
	children := st.recentDistinct(kids[:0], TreeFanout)
	for _, child := range children {
		m := ctx.SendRouted(child, KindLGrow)
		m.Item, m.Aux, m.Aux2 = key, packGrow(depth-1, wave, mode), uint64(searcher)
		m.Trace = trace
		ctx.SetPayload(m, roster, nil)
	}
	h.ctr.growSent.Add(ctx.Shard, int64(len(children)))
	if mode == ModeSearch {
		findSearchTask(st, key, searcher).kids = kids
	}
}

// onGrow handles a tree-growth invitation: the node becomes a landmark for
// the item (or search task) and recursively extends the tree unless it was
// already recruited into this wave (the paper's "not yet part of the
// tree" rule, enforced at the receiver).
func (h *Handler) onGrow(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	depth, wave, mode := unpackGrow(msg.Aux)
	key := msg.Item
	switch mode {
	case ModeStore:
		if ent := st.storageLM.get(key); ent != nil && ent.wave == wave {
			// Already in this wave's tree: refresh, do not extend.
			if exp := ctx.Round + h.P.LandmarkTTL; exp > ent.expiry {
				ent.expiry = exp
			}
			return
		}
		st.storageLM.put(key, lmEntry{
			roster: slices.Clone(msg.IDs()),
			expiry: ctx.Round + h.P.LandmarkTTL,
			wave:   wave,
		})
	case ModeSearch:
		searcher := simnet.NodeID(msg.Aux2)
		if t := findSearchTask(st, key, searcher); t != nil && t.wave == wave {
			if exp := ctx.Round + h.P.LandmarkTTL; exp > t.expiry {
				t.expiry = exp
			}
			return
		}
		h.addSearchTask(st, key, searcher, ctx.Round, wave, msg.Trace)
	default:
		return
	}
	h.growChildren(ctx, st, key, mode, simnet.NodeID(msg.Aux2), msg.IDs(), depth, wave, msg.Trace)
}

// addSearchTask registers this node as a search landmark for (key,
// searcher), creating or refreshing the task; wave is the round its tree
// was rooted (the current round for a task no tree delivered).
func (h *Handler) addSearchTask(st *nodeState, key uint64, searcher simnet.NodeID, round, wave int, trace uint64) {
	if t := findSearchTask(st, key, searcher); t != nil {
		t.expiry = round + h.P.LandmarkTTL
		t.wave = wave
		if trace != 0 {
			t.trace = trace
		}
		return
	}
	tasks := st.searchLM.get(key)
	if tasks == nil {
		tasks = st.searchLM.put(key, nil)
	}
	*tasks = append(*tasks, searchTask{
		searcher: searcher, expiry: round + h.P.LandmarkTTL, wave: wave, trace: trace,
	})
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
