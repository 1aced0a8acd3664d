package baseline

import (
	"cmp"
	"slices"

	"dynp2p/internal/simnet"
)

// HandleRound implements simnet.Handler: process routing and maintenance
// traffic, then run this node's periodic duties (join, stabilise, finger
// refresh, re-replication, pending operations).
func (h *ChordHandler) HandleRound(ctx *simnet.Ctx) {
	st := &h.states[ctx.Slot]

	for i := range ctx.Inbox {
		m := &ctx.Inbox[i]
		switch m.Kind {
		case KindFind:
			h.route(ctx, st, find{item: m.Item, aux: m.Aux, origin: simnet.NodeID(m.Aux2), blob: m.Blob()})
		case KindFound:
			h.onFound(ctx, st, m)
		case KindGetSuccs:
			h.onGetSuccs(ctx, st, m)
		case KindSuccs:
			h.onSuccs(ctx, st, m)
		case KindNotify:
			h.onNotify(ctx, st, m)
		case KindChordStore, KindRepl:
			if blob := m.Blob(); len(blob) > 0 {
				st.items[m.Item] = append([]byte(nil), blob...)
			}
		case KindData:
			h.finish(m.Item^uint64(ctx.ID), ctx.Round, int(m.Aux))
		}
	}

	if !st.joined {
		h.tryJoin(ctx, st)
		return
	}
	h.stabilize(ctx, st)
	h.refreshFinger(ctx, st)
	h.replicate(ctx, st)
	h.firePending(ctx, st)
}

// tryJoin asks a topology neighbour to find this node's ring successor.
// The model guarantees a fresh node knows its current graph neighbours.
func (h *ChordHandler) tryJoin(ctx *simnet.Ctx, st *chordState) {
	nbs := ctx.NeighborSlots()
	if len(nbs) == 0 {
		return
	}
	nb := ctx.E.IDAt(int(nbs[ctx.Rand.Intn(len(nbs))]))
	if nb == ctx.ID {
		return
	}
	find{item: st.pt, aux: packFind(purposeJoin, h.ttl, 0), origin: ctx.ID}.sendTo(ctx, nb)
}

// find is a lookup as the routing step sees it: the fields a KindFind
// message carries, whether it arrived in the inbox or starts at this node.
type find struct {
	item   uint64        // target point, or the item key of a store/get
	aux    uint64        // packFind(purpose, ttl, finger)
	origin simnet.NodeID // who gets the answer
	blob   []byte        // the item bytes of a store
}

// sendTo sends the lookup on to the next hop.
func (f find) sendTo(ctx *simnet.Ctx, next simnet.NodeID) {
	m := ctx.SendMsg(next, KindFind)
	m.Item, m.Aux, m.Aux2 = f.item, f.aux, uint64(f.origin)
	ctx.SetPayload(m, nil, f.blob)
}

// sendItem sends item bytes: a store, a replica push, or (KindData, with
// the lookup's hop count in aux) the answer to a get.
func sendItem(ctx *simnet.Ctx, to simnet.NodeID, kind uint8, key, aux uint64, data []byte) {
	m := ctx.SendMsg(to, kind)
	m.Item, m.Aux = key, aux
	ctx.SetPayload(m, nil, data)
}

// route is the Chord greedy routing step for a KindFind message.
func (h *ChordHandler) route(ctx *simnet.Ctx, st *chordState, m find) {
	purpose, ttl, finger := unpackFind(m.aux)
	if !st.joined || len(st.succs) == 0 || ttl <= 0 {
		return // lookup dies; the originator's deadline handles it
	}
	target := m.item
	if purpose == purposeStore || purpose == purposeGet {
		target = Point(m.item)
	}
	// Get lookups short-circuit on any replica along the path. For
	// store/get lookups the finger byte carries the hop count so far;
	// the KindData reply's Aux reports it (plus the reply hop itself).
	if purpose == purposeGet {
		if data, ok := st.items[m.item]; ok {
			sendItem(ctx, m.origin, KindData, m.item, uint64(finger+1), data)
			return
		}
	}
	if between(st.pt, target, st.succs[0].pt) {
		// succs[0] is the responsible node.
		h.resolve(ctx, st, m, purpose, finger, st.succs[0])
		return
	}
	if target == st.pt {
		h.resolve(ctx, st, m, purpose, finger, peer{id: ctx.ID, pt: st.pt})
		return
	}
	next := h.closestPreceding(st, target)
	if next.id == 0 || next.id == ctx.ID {
		// No better hop known; hand to the successor as a fallback.
		next = st.succs[0]
	}
	hop := finger
	if purpose == purposeStore || purpose == purposeGet {
		hop++ // finger byte doubles as hop counter for data lookups
	}
	m.aux = packFind(purpose, ttl-1, hop)
	m.sendTo(ctx, next.id)
}

// resolve completes a routed lookup at the hop preceding the responsible
// node.
func (h *ChordHandler) resolve(ctx *simnet.Ctx, st *chordState, m find, purpose uint8, finger int, resp peer) {
	switch purpose {
	case purposeJoin, purposeFinger:
		ids := []simnet.NodeID{resp.id}
		for _, s := range st.succs {
			ids = append(ids, s.id)
		}
		found := ctx.SendMsg(m.origin, KindFound)
		found.Item, found.Aux = m.item, uint64(uint8(purpose))|uint64(uint8(finger))<<8
		ctx.SetPayload(found, ids, nil)
	case purposeStore:
		if resp.id == ctx.ID {
			st.items[m.item] = append([]byte(nil), m.blob...)
			return
		}
		sendItem(ctx, resp.id, KindChordStore, m.item, 0, m.blob)
	case purposeGet:
		if resp.id == ctx.ID {
			if data, ok := st.items[m.item]; ok {
				sendItem(ctx, m.origin, KindData, m.item, uint64(finger+1), data)
			}
			return
		}
		// Forward the final hop to the responsible node; it answers (or
		// the lookup dies there if it lacks the data).
		m.aux = packFind(purposeGet, 1, finger+1)
		m.sendTo(ctx, resp.id)
	}
}

// closestPreceding returns the known peer whose point most closely
// precedes target (classic Chord next-hop choice over fingers+successors).
func (h *ChordHandler) closestPreceding(st *chordState, target uint64) peer {
	var best peer
	var bestDist uint64
	consider := func(p peer) {
		if p.id == 0 {
			return
		}
		if between(st.pt, p.pt, target-1) || p.pt == st.pt {
			d := clockwise(p.pt, target)
			if best.id == 0 || d < bestDist {
				best = p
				bestDist = d
			}
		}
	}
	for _, p := range st.fingers {
		consider(p)
	}
	for _, p := range st.succs {
		consider(p)
	}
	return best
}

// onFound installs join/finger lookup results.
func (h *ChordHandler) onFound(ctx *simnet.Ctx, st *chordState, m *simnet.Msg) {
	purpose := uint8(m.Aux)
	finger := int(uint8(m.Aux >> 8))
	ids := m.IDs()
	if len(ids) == 0 {
		return
	}
	switch purpose {
	case purposeJoin:
		st.succs = st.succs[:0]
		for _, id := range ids {
			if id != ctx.ID {
				st.succs = append(st.succs, peer{id: id, pt: Point(uint64(id))})
				st.seen(id, ctx.Round)
			}
		}
		h.sortSuccs(st)
		if len(st.succs) > 0 {
			st.joined = true
			ctx.SendMsg(st.succs[0].id, KindNotify)
		}
	case purposeFinger:
		if finger >= 0 && finger < numFingers {
			st.fingers[finger] = peer{id: ids[0], pt: Point(uint64(ids[0]))}
		}
	}
}

// stabilize prunes successors that have given no sign of life, probes the
// head plus one rotating entry, and forgets a silent predecessor.
func (h *ChordHandler) stabilize(ctx *simnet.Ctx, st *chordState) {
	h.pruneSuccs(ctx.Round, st)
	if len(st.succs) == 0 {
		st.joined = false // lost the ring entirely; rejoin
		return
	}
	ctx.SendMsg(st.succs[0].id, KindGetSuccs)
	if len(st.succs) > 1 {
		probe := st.succs[1+st.probeIdx%(len(st.succs)-1)]
		st.probeIdx++
		ctx.SendMsg(probe.id, KindGetSuccs)
	}
	if st.pred.id != 0 && ctx.Round-st.predSeen > 2*stabTimeout {
		st.pred = peer{} // stale predecessor; stop advertising it
	}
}

// pruneSuccs removes successor entries that have been silent too long.
func (h *ChordHandler) pruneSuccs(round int, st *chordState) {
	kept := st.succs[:0]
	for _, p := range st.succs {
		if round-st.lastSeen[p.id] <= 2*stabTimeout {
			kept = append(kept, p)
		}
	}
	st.succs = kept
	// Bound the lastSeen map: drop entries for long-silent peers.
	if len(st.lastSeen) > 8*succListLen {
		for id, r := range st.lastSeen {
			if round-r > 4*stabTimeout {
				delete(st.lastSeen, id)
			}
		}
	}
}

func (h *ChordHandler) onGetSuccs(ctx *simnet.Ctx, st *chordState, m *simnet.Msg) {
	if !st.joined {
		return
	}
	ids := []simnet.NodeID{st.pred.id}
	for _, s := range st.succs {
		ids = append(ids, s.id)
	}
	ctx.SetPayload(ctx.SendMsg(m.From, KindSuccs), ids, nil)
	// The asker is alive and a predecessor candidate.
	st.seen(m.From, ctx.Round)
	h.considerPred(st, m.From, ctx.Round)
}

func (h *ChordHandler) onSuccs(ctx *simnet.Ctx, st *chordState, m *simnet.Msg) {
	ids := m.IDs()
	if len(ids) == 0 {
		return
	}
	st.seen(m.From, ctx.Round)
	// Chord stabilisation: if our successor's predecessor sits between us
	// and the successor, adopt it.
	fromPt := Point(uint64(m.From))
	merged := []peer{{id: m.From, pt: fromPt}}
	if pred := ids[0]; pred != 0 && pred != ctx.ID {
		pp := Point(uint64(pred))
		if between(st.pt, pp, fromPt) {
			merged = append([]peer{{id: pred, pt: pp}}, merged...)
		}
	}
	for _, id := range ids[1:] {
		if id != 0 && id != ctx.ID {
			merged = append(merged, peer{id: id, pt: Point(uint64(id))})
		}
	}
	// New entries inherit a fresh sign of life (benefit of the doubt);
	// existing timestamps are kept.
	for _, p := range merged {
		if _, ok := st.lastSeen[p.id]; !ok {
			st.seen(p.id, ctx.Round)
		}
	}
	merged = append(merged, st.succs...)
	st.succs = merged
	h.sortSuccs(st)
}

func (h *ChordHandler) sortSuccs(st *chordState) {
	slices.SortFunc(st.succs, func(a, b peer) int {
		return cmp.Compare(clockwise(st.pt, a.pt), clockwise(st.pt, b.pt))
	})
	out := st.succs[:0]
	var last simnet.NodeID
	for _, p := range st.succs {
		if p.id == last || p.id == 0 {
			continue
		}
		last = p.id
		out = append(out, p)
		if len(out) == succListLen {
			break
		}
	}
	st.succs = out
}

func (h *ChordHandler) onNotify(ctx *simnet.Ctx, st *chordState, m *simnet.Msg) {
	st.seen(m.From, ctx.Round)
	h.considerPred(st, m.From, ctx.Round)
}

func (h *ChordHandler) considerPred(st *chordState, id simnet.NodeID, round int) {
	pt := Point(uint64(id))
	switch {
	case id == st.pred.id:
		st.predSeen = round
	case st.pred.id == 0 || between(st.pred.pt, pt, st.pt):
		st.pred = peer{id: id, pt: pt}
		st.predSeen = round
	}
}

// refreshFinger re-looks-up one finger per round (round-robin).
func (h *ChordHandler) refreshFinger(ctx *simnet.Ctx, st *chordState) {
	f := st.nextFinger
	st.nextFinger = (st.nextFinger + 1) % numFingers
	target := st.pt + uint64(1)<<(63-uint(f))
	// Route the lookup starting at ourselves.
	h.route(ctx, st, find{item: target, aux: packFind(purposeFinger, h.ttl, f), origin: ctx.ID})
}

// replicate pushes held items to the successor list every replEvery
// rounds.
func (h *ChordHandler) replicate(ctx *simnet.Ctx, st *chordState) {
	if len(st.items) == 0 || ctx.Round-st.lastRepl < replEvery {
		return
	}
	st.lastRepl = ctx.Round
	keys := make([]uint64, 0, len(st.items))
	for k := range st.items {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	limit := len(st.succs)
	if limit > 4 {
		limit = 4
	}
	for _, k := range keys {
		for i := 0; i < limit; i++ {
			sendItem(ctx, st.succs[i].id, KindRepl, k, 0, st.items[k])
		}
	}
}

// firePending launches queued store/get operations as self-routed finds.
func (h *ChordHandler) firePending(ctx *simnet.Ctx, st *chordState) {
	for _, ps := range st.pendingStores {
		h.route(ctx, st, find{item: ps.key, aux: packFind(purposeStore, h.ttl, 0), origin: ctx.ID, blob: ps.data})
	}
	st.pendingStores = st.pendingStores[:0]
	for _, key := range st.pendingGets {
		h.route(ctx, st, find{item: key, aux: packFind(purposeGet, h.ttl, 0), origin: ctx.ID})
	}
	st.pendingGets = st.pendingGets[:0]
}
