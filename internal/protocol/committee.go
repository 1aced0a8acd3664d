package protocol

import (
	"slices"

	"dynp2p/internal/ida"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// membership is one node's view of one storage committee it belongs to
// (Algorithm 1). The epoch machinery re-elects the whole committee from
// fresh walk samples every Period rounds so the committee outlives its
// members (Theorem 2). A search committee is never re-elected and holds
// nothing: its members are searchTasks.
type membership struct {
	key    uint64          // item key, the committee's id
	base   int             // committee creation round; anchors the epoch schedule
	roster []simnet.NodeID // current members (possibly including dead ids)
	joined int             // round this node (re-)joined
	trace  uint64          // lifecycle trace id inherited from the invite (0 = untraced)

	// Per-epoch scratch, reset at each epoch's sample window.
	curEpoch     int             // epoch the scratch belongs to; -1 before the first window
	sources      []simnet.NodeID // walk sources recorded in the window
	myCount      int             // walks received in the window
	counts       table[int]      // member id -> reported count
	gathered     []ida.Piece     // IDA pieces sent to this leader candidate, ascending by index
	gatheredLen  int             // item length for gathered pieces
	handledEpoch int             // last epoch with a handover seen/attempted
}

// epochOf returns the maintenance epoch index for a round (0 = the epoch
// in which the committee was created; maintenance starts with epoch 1).
func (m *membership) epochOf(round, period int) int {
	if round < m.base {
		return 0
	}
	return (round - m.base) / period
}

// phaseOf returns the offset of round within its epoch.
func (m *membership) phaseOf(round, period int) int {
	if round < m.base {
		return 0
	}
	return (round - m.base) % period
}

// tickMemberships runs the per-round committee machinery (Algorithm 1) for
// every storage committee this node belongs to: sample-window recording,
// count exchange, (IDA mode) the piece round, ranked handover attempts,
// and landmark waves.
func (h *Handler) tickMemberships(ctx *simnet.Ctx, st *nodeState, samples []walks.Sample) {
	round := ctx.Round
	// The primary's turn: the round the counts land, and in IDA mode the
	// round after, when the pieces sent to the candidates have landed too.
	firstTurn := SampleWindow + 1
	if h.code != nil {
		firstTurn++
	}
	for i := range st.memberships.vals {
		m := &st.memberships.vals[i]
		epoch := m.epochOf(round, h.P.Period)
		phase := m.phaseOf(round, h.P.Period)
		if epoch >= 1 {
			if phase < SampleWindow {
				if m.curEpoch != epoch {
					m.curEpoch = epoch
					m.sources = m.sources[:0]
					m.myCount = 0
					m.counts.reset()
					m.gathered = m.gathered[:0]
					m.gatheredLen = 0
				}
				m.myCount += len(samples)
				for _, s := range samples {
					if s.Src != st.id {
						m.sources = append(m.sources, s.Src)
					}
				}
			}
			if phase == SampleWindow && m.curEpoch == epoch {
				h.sendCounts(ctx, st, m)
			}
			if phase == SampleWindow+1 && h.code != nil && m.curEpoch == epoch {
				h.sendPiece(ctx, st, m)
			}
			if phase > SampleWindow && m.curEpoch == epoch && m.handledEpoch < epoch {
				k := phase - firstTurn
				if k >= 0 && k%FallbackSpacing == 0 {
					k /= FallbackSpacing
					if k < FallbackCandidates && m.rankOf(st.id) == k {
						h.attemptHandover(ctx, st, m, epoch, k)
					}
				}
			}
		}
		h.maybeWave(ctx, st, m)
	}
}

// sendCounts sends this member's sample count, a bare header, to the whole
// roster. In IDA mode it also records the member's own piece, for the
// reconstruction it runs if it turns out a leader candidate.
func (h *Handler) sendCounts(ctx *simnet.Ctx, st *nodeState, m *membership) {
	m.counts.put(uint64(st.id), m.myCount)
	if h.code != nil {
		if cp := st.stored.get(m.key); cp != nil && cp.pieceIdx >= 0 {
			// The own piece takes the place of a peer's copy of it.
			if i, dup := m.pieceAt(cp.pieceIdx); dup {
				m.gathered[i].Data = cp.data
			} else {
				m.gathered = slices.Insert(m.gathered, i, ida.Piece{Index: cp.pieceIdx, Data: cp.data})
			}
			m.gatheredLen = cp.itemLen
		}
	}
	for _, peer := range m.roster {
		if peer == st.id {
			continue
		}
		msg := ctx.SendMsg(peer, KindCCount)
		msg.Item, msg.Aux, msg.Trace = m.key, uint64(m.myCount), m.trace
	}
}

// onCount records a peer's count for the current epoch.
func (h *Handler) onCount(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	m := st.memberships.get(msg.Item)
	if m == nil || m.curEpoch < 0 {
		return
	}
	m.counts.put(uint64(msg.From), int(msg.Aux))
}

// sendPiece is the IDA piece round, the round after the counts: only the
// epoch leader or a fallback candidate ever reconstructs the item (§4.4),
// so a member sends its piece to the first FallbackCandidates members of
// the ranking it has just received, not to the whole roster.
func (h *Handler) sendPiece(ctx *simnet.Ctx, st *nodeState, m *membership) {
	cp := st.stored.get(m.key)
	if cp == nil || cp.pieceIdx < 0 {
		return
	}
	top, n := m.candidates()
	for _, i := range top[:n] {
		peer := simnet.NodeID(m.counts.keys[i])
		if peer == st.id {
			continue
		}
		msg := ctx.SendMsg(peer, KindCPiece)
		msg.Item, msg.Aux, msg.Aux2, msg.Trace = m.key, uint64(cp.pieceIdx), uint64(cp.itemLen), m.trace
		ctx.SetPayload(msg, nil, cp.data)
	}
}

// onPiece files a member's piece for the current epoch's reconstruction.
func (h *Handler) onPiece(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	m := st.memberships.get(msg.Item)
	if m == nil || m.curEpoch < 0 {
		return
	}
	if blob := msg.Blob(); len(blob) > 0 {
		if i, dup := m.pieceAt(int(msg.Aux)); !dup {
			m.gathered = slices.Insert(m.gathered, i, ida.Piece{Index: int(msg.Aux), Data: slices.Clone(blob)})
			m.gatheredLen = int(msg.Aux2)
		}
	}
}

// candidates returns the indexes in counts of the first FallbackCandidates
// members of the epoch leader ranking (rankOf's order), best first. counts
// is in ascending id order, so a member passes only those with a smaller
// count.
func (m *membership) candidates() (top [FallbackCandidates]int, n int) {
	for i, c := range m.counts.vals {
		j := n
		for j > 0 && c > m.counts.vals[top[j-1]] {
			j--
		}
		if j == FallbackCandidates {
			continue
		}
		n = min(n+1, FallbackCandidates)
		copy(top[j+1:n], top[j:n-1])
		top[j] = i
	}
	return top, n
}

// pieceAt returns where piece idx sits, or belongs, in gathered.
func (m *membership) pieceAt(idx int) (int, bool) {
	return slices.BinarySearchFunc(m.gathered, idx, func(p ida.Piece, idx int) int { return p.Index - idx })
}

// rankOf returns node self's position in the epoch leader ranking:
// members ordered by (count desc, id asc), as in Algorithm 1 ("the node
// with the largest number of random walks, breaking ties arbitrarily yet
// unanimously").
func (m *membership) rankOf(self simnet.NodeID) int {
	own := m.counts.get(uint64(self))
	if own == nil {
		return len(m.counts.keys)
	}
	rank := 0
	for i, c := range m.counts.vals {
		if c > *own || c == *own && m.counts.keys[i] < uint64(self) {
			rank++
		}
	}
	return rank
}

// inviteCount is the number of invitations sent per committee formation:
// CommitteeSize scaled by the over-provisioning factor.
func (h *Handler) inviteCount() int {
	return int(InviteFactor*float64(h.P.CommitteeSize) + 0.5)
}

// attemptHandover is the epoch leader action (Algorithm 1 rounds r+2/r+3):
// pick a fresh roster from the walk sources recorded in the sample window,
// invite them (with the item payload), and tell the old roster to resign.
// Fallback candidates (k > 0) run the same code if the primary vanished.
func (h *Handler) attemptHandover(ctx *simnet.Ctx, st *nodeState, m *membership, epoch, k int) {
	want := h.inviteCount()
	newRoster := appendDistinct(make([]simnet.NodeID, 0, want), m.sources, want, st.id)
	if len(newRoster) == 0 {
		return // no samples: let the next candidate try
	}

	// Prepare the task payload for the new members. If this candidate
	// cannot produce the item (its copy is gone, or fewer than K pieces
	// survived the epoch), it aborts WITHOUT handing over: the surviving
	// members keep their copies/pieces, a better-equipped fallback
	// candidate may still act this epoch, and otherwise the committee
	// retries at the next epoch boundary.
	var blobs [][]byte
	var itemLen uint64
	if h.code == nil {
		cp := st.stored.get(m.key)
		if cp == nil {
			return
		}
		blobs = make([][]byte, len(newRoster))
		for i := range blobs {
			blobs[i] = cp.data
		}
		itemLen = uint64(cp.itemLen)
	} else {
		// §4.4: reconstruct from the pieces the members sent this
		// candidate, then re-disperse fresh pieces to the new roster.
		item, ok := h.reconstruct(m)
		if !ok {
			h.ctr.idaLost.Inc(ctx.Shard)
			return
		}
		pieces := h.code.Encode(item)
		blobs = make([][]byte, len(newRoster))
		for i := range blobs {
			blobs[i] = pieces[i%len(pieces)].Data
		}
		itemLen = uint64(len(item))
		h.ctr.idaRecoded.Inc(ctx.Shard)
	}
	m.handledEpoch = epoch

	for i, peer := range newRoster {
		pieceIdx := 0
		if h.code != nil {
			pieceIdx = i % h.P.CommitteeSize
		}
		msg := ctx.SendMsg(peer, KindCInvite)
		msg.Item, msg.Aux, msg.Aux2 = m.key, packInvite(m.base, pieceIdx), itemLen
		msg.Trace = m.trace
		ctx.SetPayload(msg, newRoster, blobs[i])
	}
	h.ctr.invitesSent.Add(ctx.Shard, int64(len(newRoster)))
	for _, peer := range m.roster {
		msg := ctx.SendMsg(peer, KindCHandover)
		msg.Item, msg.Aux, msg.Trace = m.key, uint64(epoch), m.trace
		ctx.SetPayload(msg, newRoster, nil)
	}
	h.ctr.handovers.Inc(ctx.Shard)
	if k > 0 {
		h.ctr.fallbackHandovers.Inc(ctx.Shard)
	}
}

// reconstruct rebuilds the item from the pieces gathered this epoch.
func (h *Handler) reconstruct(m *membership) ([]byte, bool) {
	if len(m.gathered) < h.code.K() {
		return nil, false
	}
	item, err := h.code.Decode(m.gathered, m.gatheredLen)
	return item, err == nil
}

// appendDistinct appends src's ids to dst in order, skipping self and
// anything dst already holds, until dst holds want ids. The lists are
// rosters — Θ(log n) long — so dst is its own seen-set (the rule
// recentDistinct states).
func appendDistinct(dst, src []simnet.NodeID, want int, self simnet.NodeID) []simnet.NodeID {
	for _, id := range src {
		if len(dst) >= want {
			break
		}
		if id != self && !slices.Contains(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// onInvite installs (or refreshes) a committee membership, stores the task
// payload, and registers the new member as a landmark for the item.
func (h *Handler) onInvite(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	base, pieceIdx := unpackInvite(msg.Aux)
	key := msg.Item
	m := st.memberships.put(key, membership{
		key: key, base: base,
		roster:   slices.Clone(msg.IDs()),
		joined:   ctx.Round,
		curEpoch: -1,
		trace:    msg.Trace,
	})
	m.handledEpoch = m.epochOf(ctx.Round, h.P.Period)

	if blob := msg.Blob(); len(blob) > 0 {
		idx := -1
		if h.code != nil {
			idx = pieceIdx
		}
		st.stored.put(key, storedCopy{
			data:     slices.Clone(blob),
			pieceIdx: idx,
			itemLen:  int(msg.Aux2),
		})
	}
	st.registerLandmark(key, lmEntry{
		roster: m.roster, expiry: ctx.Round + h.P.LandmarkTTL, wave: ctx.Round,
	})
	// A traced store settles when its *creation* invites land (base ==
	// the send round): every founding member emits a done event, and
	// the tracer's first-done-wins aggregation closes the lifecycle
	// deterministically. Handover invites (older base) don't re-close.
	if msg.Trace != 0 && base == ctx.Round-1 {
		if tr := ctx.E.Tracer(); tr != nil {
			tr.Emit(ctx.Shard, telemetry.Event{
				Trace: msg.Trace, Round: int64(ctx.Round), Kind: telemetry.EvOpDone,
				From: uint64(st.id), Item: key, OK: true,
			})
		}
	}
}

// onHandover processes the old-roster notification: members not re-invited
// resign and drop the task payload (Algorithm 1: "the nodes in Com cease to
// be members of the committee").
func (h *Handler) onHandover(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	m := st.memberships.get(msg.Item)
	if m == nil {
		return
	}
	if int(msg.Aux) > m.handledEpoch {
		m.handledEpoch = int(msg.Aux)
	}
	if slices.Contains(msg.IDs(), st.id) {
		return // re-invited: the CInvite (processed earlier) refreshed us
	}
	st.stored.del(m.key)
	st.memberships.del(msg.Item)
	h.ctr.resignations.Inc(ctx.Shard)
}
