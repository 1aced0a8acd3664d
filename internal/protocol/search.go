package protocol

import (
	"bytes"
	"math"

	"dynp2p/internal/ida"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// searchState tracks one retrieval this node initiated (Algorithm 4).
type searchState struct {
	key      uint64
	start    int
	deadline int
	formed   int             // round the committee was formed: a wave is due every Tau rounds after
	found    int             // round the first storage roster arrived; -1 until then
	invited  []simnet.NodeID // the search committee: each wave's first level, told when the search ends
	roster   []simnet.NodeID // storage members already asked for data
	pieces   []ida.Piece     // IDA pieces fetched so far, one per index (addPiece)
	want     []byte          // expected content, if known (for verification)
	trace    uint64          // nonzero when this retrieval is lifecycle-traced
	cached   bool            // a cached copy resolved (or is resolving) the search
}

// RequestStore asks the node at slot to persistently store (key, data)
// via Algorithm 3: it will create a committee from its walk samples and
// instruct it to store the item and maintain landmark sets. Call between
// rounds only.
func (h *Handler) RequestStore(e *simnet.Engine, slot int, key uint64, data []byte) {
	st := &h.states[slot]
	st.pending = append(st.pending, pendingOp{
		store: true, key: key,
		data:  append([]byte(nil), data...),
		start: e.Round(),
	})
}

// RequestRetrieve asks the node at slot to retrieve item key via
// Algorithm 4. expect, when non-nil, is verified against the retrieved
// bytes. Call between rounds only. A node runs one search per key at a
// time: a request for a key it is still searching waits for that search to
// report, then runs as its own operation.
func (h *Handler) RequestRetrieve(e *simnet.Engine, slot int, key uint64, expect []byte) {
	st := &h.states[slot]
	st.pending = append(st.pending, pendingOp{key: key, data: expect, start: e.Round()})
}

// tickPending creates committees for requested operations once the node
// has gathered enough walk samples to pick committee members.
func (h *Handler) tickPending(ctx *simnet.Ctx, st *nodeState) {
	if len(st.pending) == 0 {
		return
	}
	kept := st.pending[:0]
	for _, op := range st.pending {
		if !op.store {
			// One search per key: the running one must report before this
			// request starts, or one result would answer both.
			if st.searches.get(op.key) != nil {
				kept = append(kept, op)
				continue
			}
			// A retrieval the node can answer from its own cache never
			// forms a committee: it resolves in place, this tick.
			if e := h.cacheLookup(ctx, op.key); e != nil {
				h.serveOwnCacheHit(ctx, st, op, e)
				continue
			}
		}
		want := h.inviteCount()
		roster := st.recentDistinct(make([]simnet.NodeID, 0, want), want)
		// Wait until a full committee can be drawn; the grace period
		// covers the soup warm-up (a fresh node sees its first samples
		// only after one walk length), after which we use what we have.
		grace := h.soup.Params().WalkLength + 2*SampleWindow
		enough := len(roster) >= h.P.CommitteeSize ||
			(ctx.Round-op.start > grace && len(roster) > 0)
		if !enough {
			kept = append(kept, op)
			continue
		}
		if op.store {
			h.createStoreCommittee(ctx, st, op, roster)
		} else {
			h.createSearchCommittee(ctx, st, op, roster)
		}
	}
	st.pending = kept
}

// createStoreCommittee implements Algorithm 3 step 1-2: invite the roster
// to form the item's committee, handing each member the item (or its IDA
// piece).
func (h *Handler) createStoreCommittee(ctx *simnet.Ctx, st *nodeState, op pendingOp, roster []simnet.NodeID) {
	var pieces []ida.Piece
	if h.code != nil {
		pieces = h.disperse(op.key, op.data, false)
	}
	h.sendInvites(ctx, op.key, ctx.Round, roster, op.data, pieces, len(op.data), h.sampleOp(ctx, st, op))
	h.ctr.committeeCreated.Inc(ctx.Shard)
}

// sampleOp decides whether the operation is lifecycle-traced and, when it
// is, emits its start event (dated at the request round, so
// rounds-to-resolve includes the soup warm-up wait). The decision is a
// pure hash of (tracer seed, key, issuer): worker-count independent.
func (h *Handler) sampleOp(ctx *simnet.Ctx, st *nodeState, op pendingOp) uint64 {
	tr := ctx.E.Tracer()
	if tr == nil {
		return 0
	}
	trace := tr.Sampled(op.key, uint64(st.id))
	if trace != 0 {
		tr.Emit(ctx.Shard, telemetry.Event{
			Trace: trace, Round: int64(op.start), Kind: telemetry.EvOpStart,
			From: uint64(st.id), Item: op.key, OK: op.store,
		})
	}
	return trace
}

// createSearchCommittee implements Algorithm 4 step 1: form a search
// committee, send it the first wave and start tracking the retrieval
// locally.
func (h *Handler) createSearchCommittee(ctx *simnet.Ctx, st *nodeState, op pendingOp, roster []simnet.NodeID) {
	trace := h.sampleOp(ctx, st, op)
	srch := st.searches.put(&h.slabs[ctx.Shard], op.key, searchState{
		key: op.key, start: op.start,
		deadline: op.start + h.P.SearchTTL(),
		formed:   ctx.Round,
		found:    -1,
		invited:  roster,
		want:     op.data,
		trace:    trace,
	})
	h.sendWave(ctx, st, srch)
	h.ctr.committeeCreated.Inc(ctx.Shard)
	// The searcher doubles as a search landmark so its own walk samples
	// contribute to the rendezvous, for as long as the search runs.
	h.addSearchTask(ctx, st, op.key, st.id, ctx.Round, trace).expiry = srch.deadline
	// Shortcut: if the searcher already happens to be a storage landmark
	// for the item, it knows the roster and can fetch immediately.
	if ent := st.storageLM.get(op.key); ent != nil && ctx.Round < ent.expiry {
		srch.found = ctx.Round
		h.fetchFrom(ctx, st, srch, ent.roster)
	}
}

// sendWave roots one of the searcher's landmark trees: the committee is its
// first level, and each member grows the rest in the round the wave lands.
// Members root no tree of their own, so a search's trees stop when its
// searcher stops sending waves — by finishing, or by leaving.
func (h *Handler) sendWave(ctx *simnet.Ctx, st *nodeState, srch *searchState) {
	for _, peer := range srch.invited {
		m := ctx.SendMsg(peer, KindSGrow)
		m.Item, m.Aux, m.Aux2 = srch.key, packGrow(h.P.TreeDepth, ctx.Round+1), uint64(st.id)
		ctx.SetTrace(m, srch.trace)
	}
	h.ctr.waves.Inc(ctx.Shard)
}

// fetchFrom asks every member the search has not asked yet for the item
// bytes; srch.roster is the asked-set, grown through the slot's shard slab.
func (h *Handler) fetchFrom(ctx *simnet.Ctx, st *nodeState, srch *searchState, members []simnet.NodeID) {
	asked := len(srch.roster)
	srch.roster = h.slabs[ctx.Shard].ids.grow(srch.roster, len(members))
	srch.roster = appendDistinct(srch.roster, members, math.MaxInt, st.id)
	for _, member := range srch.roster[asked:] {
		m := ctx.SendMsg(member, KindSFetch)
		m.Item = srch.key
		ctx.SetTrace(m, srch.trace)
	}
}

// tickSearchLandmarks runs Algorithm 4 after the whole inbox: a tree node a
// wave reached this round grows the tree on (step 1) — here, not on receipt,
// so a KindSDone in the same inbox ends the tree at this node — and every
// search landmark contacts the sources of the walk samples it received this
// round and inquires about the item (step 2). The question is the same for
// every searcher of the key, so one inquiry asks it for two: the key's live
// tasks, in table order, are paired up (DESIGN.md §2, "A landmark asks a
// sample once for two searchers").
func (h *Handler) tickSearchLandmarks(ctx *simnet.Ctx, st *nodeState, samples []walks.Sample) {
	round, pairs := ctx.Round, 0
	for lo := 0; lo < len(st.searchLM.keys); {
		key := st.searchLM.keys[lo]
		_, hi := st.searchLM.span(key)
		tasks := st.searchLM.vals[lo:hi]
		lo = hi
		for j := range tasks {
			if t := &tasks[j]; t.grow > 0 {
				t.kids = h.growChildren(ctx, st, KindSGrow, key, uint64(t.searcher), nil, t.grow, t.wave, t.trace)
				t.grow = 0
			}
		}
		for j := 0; j < len(tasks); j++ {
			first := &tasks[j]
			if round >= first.expiry {
				continue
			}
			var second simnet.NodeID
			for j+1 < len(tasks) {
				j++
				if round < tasks[j].expiry {
					second = tasks[j].searcher
					break
				}
			}
			for _, s := range samples {
				if s.Src == st.id {
					continue
				}
				// Keyed send: under overlay routing the walk may
				// terminate early at ANY current holder of the item (cache
				// replica, storage landmark, committee member), not just
				// the sampled source — replicas cut network distance.
				m := ctx.SendKeyed(s.Src, KindSInquire)
				m.Item, m.Aux, m.Aux2 = key, uint64(second), uint64(first.searcher)
				ctx.SetTrace(m, first.trace)
				if second != 0 {
					pairs++
				}
			}
		}
	}
	h.ctr.inquiryPairs.Add(ctx.Shard, int64(pairs))
}

// onInquire answers an inquiry for each searcher it names, in order, if
// this node holds the item in its cache or is a storage landmark (or
// committee member) for it. A cache replica serves one inquiry a round, so
// it answers the first searcher. A storage landmark reports the roster
// directly to each searcher, once a round per roster: a searcher its stamp
// holds goes unanswered (DESIGN.md §2, "A landmark tells a searcher once a
// round" and "A landmark asks a sample once for two searchers"). A
// registration that brings a new roster starts unstamped
// (becomeLandmark). Only the first searcher's reply carries the trace.
func (h *Handler) onInquire(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	named := [2]simnet.NodeID{simnet.NodeID(msg.Aux2), simnet.NodeID(msg.Aux)}
	// A cached copy beats a roster referral: the bytes go straight to
	// the searcher, skipping the fetch/reconstruct round-trips.
	if e := h.cacheLookup(ctx, msg.Item); e != nil {
		h.cacheServe(ctx, e, named[0], msg.Trace())
		return
	}
	ent := st.storageLM.get(msg.Item)
	if ent == nil || ctx.Round >= ent.expiry {
		return
	}
	told := ent.toldTo
	if ent.toldAt != ctx.Round {
		told = [2]simnet.NodeID{}
	}
	// The stamp becomes the last two searchers named this round, newest
	// first: a lone searcher keeps the other one the stamp held.
	next := named
	if next[1] == 0 {
		if next[1] = told[0]; next[1] == named[0] {
			next[1] = told[1]
		}
	}
	ent.toldAt, ent.toldTo = ctx.Round, next
	trace := msg.Trace()
	for _, searcher := range named {
		switch {
		case searcher == 0:
		case searcher == told[0] || searcher == told[1]:
			h.ctr.foundRepeats.Inc(ctx.Shard)
		default:
			m := ctx.SendMsg(searcher, KindSFound)
			m.Item = msg.Item
			ctx.SetTrace(m, trace)
			ctx.SetPayload(m, ent.roster, nil)
		}
		trace = 0
	}
}

// onFound handles the searcher's side: record the storage roster and fetch
// the item from the committee members.
func (h *Handler) onFound(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	srch := st.searches.get(msg.Item)
	if srch == nil {
		return
	}
	if srch.found < 0 {
		srch.found = ctx.Round
	}
	h.fetchFrom(ctx, st, srch, msg.IDs())
}

// onFetch returns this member's copy or piece of the item.
func (h *Handler) onFetch(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	cp := st.memberships.get(msg.Item)
	if cp == nil || cp.data == nil {
		return
	}
	m := ctx.SendMsg(msg.From, KindSData)
	m.Item, m.Aux, m.Aux2 = msg.Item, uint64(max(cp.pieceIdx, 0)), uint64(cp.itemLen)
	ctx.SetTrace(m, msg.Trace())
	ctx.SetPayload(m, nil, cp.data)
}

// onData advances a retrieval with a member's copy or piece, and completes
// it once the copy, or K distinct pieces, are in.
func (h *Handler) onData(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	srch := st.searches.get(msg.Item)
	if srch == nil {
		return
	}
	item := msg.Blob()
	if h.code != nil {
		srch.pieces = addPiece(&h.slabs[ctx.Shard].pieces, srch.pieces, ida.Piece{Index: int(msg.Aux), Data: item})
		var ok bool
		if item, ok = h.decode(nil, srch.pieces, int(msg.Aux2)); !ok {
			return
		}
	}
	h.complete(ctx, st, srch, item)
}

// complete ends a retrieval with the item's bytes, however they came: a
// verified item is admitted to the node's cache (and seeded) before the
// search is finished.
func (h *Handler) complete(ctx *simnet.Ctx, st *nodeState, srch *searchState, item []byte) {
	ok := srch.want == nil || bytes.Equal(item, srch.want)
	if ok {
		h.cacheAdmit(ctx, st, srch.key, item, srch.trace)
	}
	h.finishSearch(ctx, st, srch, ctx.Round, ok, len(item))
}

// finishSearch ends a retrieval this node ran — done is the round the
// bytes arrived, -1 if the search expired — by recording the outcome,
// telling the search's committee and landmarks to stop, and clearing the
// local state.
//
// The telling is not in Algorithm 4, which only says how a search finds its
// item: left alone, the last wave's Θ(√n) landmarks inquire every walk
// sample for LandmarkTTL more. So the searcher sends a KindSDone to its
// committee, and every receiver leaves the search and passes the notice to
// the children it grew, one round behind any growth still in flight. The
// notice ends only tasks with wave <= the round it names, because
// tickPending may start the searcher's next search for the key in the very
// tick this one finishes, down much the same nodes (dropSearchTask;
// DESIGN.md §2, "The guard"). It is advisory: a search whose notice is
// lost, or whose searcher was churned out, sends no more waves, its
// landmarks age out by LandmarkTTL, and no result depends on it.
func (h *Handler) finishSearch(ctx *simnet.Ctx, st *nodeState, srch *searchState, done int, success bool, nbytes int) {
	h.recordResult(SearchResult{
		Searcher: st.id, Key: srch.key, Start: srch.start,
		Found: srch.found, Done: done, Success: success,
		Cached: srch.cached, Bytes: nbytes,
	})
	if success {
		lat := int64(done - srch.start)
		if srch.cached {
			h.ctr.roundsCached.Observe(ctx.Shard, lat)
		} else {
			h.ctr.roundsUncached.Observe(ctx.Shard, lat)
		}
	}
	if tr := ctx.E.Tracer(); tr != nil && srch.trace != 0 {
		tr.Emit(ctx.Shard, telemetry.Event{
			Trace: srch.trace, Round: int64(ctx.Round), Kind: telemetry.EvOpDone,
			From: uint64(st.id), Item: srch.key,
			Aux: int64(ctx.Round - srch.start), OK: success,
		})
	}
	h.sendDone(ctx, srch.invited, srch.key, st.id, ctx.Round)
	h.dropSearchTask(ctx, st, srch.key, st.id, ctx.Round)
	srch.release(&h.slabs[ctx.Shard])
	st.searches.del(srch.key)
}

// sendDone tells each of to (0 = nobody) that searcher's search for key ended in round.
func (h *Handler) sendDone(ctx *simnet.Ctx, to []simnet.NodeID, key uint64, searcher simnet.NodeID, round int) {
	for _, id := range to {
		if id != 0 {
			m := ctx.SendMsg(id, KindSDone)
			m.Item, m.Aux, m.Aux2 = key, uint64(round), uint64(searcher)
		}
	}
}

// onDone leaves the ended search's committee and landmark tree.
func (h *Handler) onDone(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	h.dropSearchTask(ctx, st, msg.Item, simnet.NodeID(msg.Aux2), int(msg.Aux))
}

// dropSearchTask ends the node's part in searcher's search for key, which
// ended in round: it deletes the task, telling the children the task grew,
// if its tree was rooted by round — a later wave is the next search's.
func (h *Handler) dropSearchTask(ctx *simnet.Ctx, st *nodeState, key uint64, searcher simnet.NodeID, round int) {
	i := searchTaskAt(st, key, searcher)
	if i < 0 || st.searchLM.vals[i].wave > round {
		return
	}
	h.sendDone(ctx, st.searchLM.vals[i].kids[:], key, searcher, round)
	st.searchLM.delAt(i)
}

// tickSearches expires overdue retrievals (recorded as failures, Done = -1)
// and sends the others' waves, which land every Tau rounds after the
// committee formed, up to the deadline.
func (h *Handler) tickSearches(ctx *simnet.Ctx, st *nodeState) {
	round := ctx.Round
	for i := 0; i < len(st.searches.vals); i++ {
		srch := &st.searches.vals[i]
		if round >= srch.deadline {
			h.finishSearch(ctx, st, srch, -1, false, 0)
			i--
		} else if round > srch.formed && (round+1-srch.formed)%h.P.Tau == 0 && round+1 < srch.deadline {
			h.sendWave(ctx, st, srch)
		}
	}
}
