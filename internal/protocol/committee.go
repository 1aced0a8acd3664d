package protocol

import (
	"bytes"
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

	// data is this member's share of the item: the full bytes in
	// replication mode, or IDA piece pieceIdx; nil if no invite brought it
	// one. itemLen is the item's length.
	data     []byte
	pieceIdx int // -1 in replication mode
	itemLen  int

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
	sl := &h.slabs[ctx.Shard]
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
				m.sources = sl.ids.grow(m.sources, len(samples))
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
	sl := &h.slabs[ctx.Shard]
	m.counts.put(sl, uint64(st.id), m.myCount)
	if h.code != nil && m.data != nil && m.pieceIdx >= 0 {
		m.gathered = addPiece(&sl.pieces, m.gathered, ida.Piece{Index: m.pieceIdx, Data: m.data})
		m.gatheredLen = m.itemLen
	}
	for _, peer := range m.roster {
		if peer == st.id {
			continue
		}
		msg := ctx.SendMsg(peer, KindCCount)
		msg.Item, msg.Aux = m.key, uint64(m.myCount)
		ctx.SetTrace(msg, m.trace)
	}
}

// onCount records a peer's count for the current epoch.
func (h *Handler) onCount(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	m := st.memberships.get(msg.Item)
	if m == nil || m.curEpoch < 0 {
		return
	}
	m.counts.put(&h.slabs[ctx.Shard], uint64(msg.From), int(msg.Aux))
}

// sendPiece is the IDA piece round, the round after the counts: only the
// epoch leader or a fallback candidate ever reconstructs the item (§4.4),
// so a member sends its piece to the first FallbackCandidates members of
// the ranking it has just received, not to the whole roster.
func (h *Handler) sendPiece(ctx *simnet.Ctx, st *nodeState, m *membership) {
	if m.data == nil || m.pieceIdx < 0 {
		return
	}
	top, n := m.candidates()
	for _, i := range top[:n] {
		peer := simnet.NodeID(m.counts.keys[i])
		if peer == st.id {
			continue
		}
		msg := ctx.SendMsg(peer, KindCPiece)
		msg.Item, msg.Aux, msg.Aux2 = m.key, uint64(m.pieceIdx), uint64(m.itemLen)
		ctx.SetTrace(msg, m.trace)
		ctx.SetPayload(msg, nil, m.data)
	}
}

// onPiece files a member's piece for the current epoch's reconstruction.
func (h *Handler) onPiece(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	m := st.memberships.get(msg.Item)
	if m == nil || m.curEpoch < 0 {
		return
	}
	if blob := msg.Blob(); len(blob) > 0 {
		m.gathered = addPiece(&h.slabs[ctx.Shard].pieces, m.gathered, ida.Piece{Index: int(msg.Aux), Data: blob})
		m.gatheredLen = int(msg.Aux2)
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

// addPiece files p in the piece set ps — sorted by index, one piece per
// index — unless ps already holds its index, whose bytes a repeat only
// repeats (Encode cuts the same pieces from an item every time). A
// committee's leader candidates gather their epoch's pieces this way, and
// a searcher the pieces its fetches bring. The set grows through f, the
// slot's shard slab's piece lists.
func addPiece(f *freeLists[ida.Piece], ps []ida.Piece, p ida.Piece) []ida.Piece {
	i, dup := slices.BinarySearchFunc(ps, p.Index, func(q ida.Piece, idx int) int { return q.Index - idx })
	if !dup {
		ps = slices.Insert(f.grow(ps, 1), i, p)
	}
	return ps
}

// decode rebuilds an item of itemLen bytes from a piece set, once it holds
// K pieces, into buf's storage if it has the room (ida.DecodeInto).
func (h *Handler) decode(buf []byte, ps []ida.Piece, itemLen int) ([]byte, bool) {
	if len(ps) < h.code.K() {
		return nil, false
	}
	item, err := h.code.DecodeInto(buf, ps, itemLen)
	return item, err == nil
}

// dispersal is an item's bytes and Encode's pieces of them, both immutable.
type dispersal struct {
	item   []byte
	pieces []ida.Piece
}

// disperse returns key's recorded pieces if they were cut from item's
// bytes, else Encode's, which it records, item copied if scratch. Encode
// cuts the same pieces from the same bytes, so no result can tell the two
// apart. Shards disperse concurrently: the table is behind h.mu.
func (h *Handler) disperse(key uint64, item []byte, scratch bool) []ida.Piece {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d, ok := h.dispersals[key]; ok && bytes.Equal(d.item, item) {
		return d.pieces
	}
	if scratch {
		item = bytes.Clone(item)
	}
	d := dispersal{item, h.code.Encode(item)}
	h.dispersals[key] = d
	return d.pieces
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
	var pieces []ida.Piece // nil in replication mode: every invite carries m.data
	itemLen := m.itemLen
	if h.code == nil {
		if m.data == nil {
			return
		}
	} else {
		// §4.4: reconstruct from the pieces the members sent this
		// candidate, into the shard's scratch, and re-disperse the item.
		item, ok := h.decode(h.slabs[ctx.Shard].item, m.gathered, m.gatheredLen)
		if !ok {
			h.ctr.idaLost.Inc(ctx.Shard)
			return
		}
		h.slabs[ctx.Shard].item = item
		pieces, itemLen = h.disperse(m.key, item, true), len(item)
		h.ctr.idaRecoded.Inc(ctx.Shard)
	}
	m.handledEpoch = epoch

	h.sendInvites(ctx, m.key, m.base, newRoster, m.data, pieces, itemLen, m.trace)
	for _, peer := range m.roster {
		msg := ctx.SendMsg(peer, KindCHandover)
		msg.Item, msg.Aux = m.key, uint64(epoch)
		ctx.SetTrace(msg, m.trace)
		ctx.SetPayload(msg, newRoster, nil)
	}
	h.ctr.handovers.Inc(ctx.Shard)
	if k > 0 {
		h.ctr.fallbackHandovers.Inc(ctx.Shard)
	}
}

// sendInvites invites roster to key's committee, founded in round base
// (Algorithm 3 at creation, Algorithm 1 at a handover). Each invite
// carries the roster and the member's share of the item: data itself in
// replication mode (pieces nil), else piece i mod L of the item's
// dispersal, so the first L members hold distinct pieces.
func (h *Handler) sendInvites(ctx *simnet.Ctx, key uint64, base int, roster []simnet.NodeID,
	data []byte, pieces []ida.Piece, itemLen int, trace uint64) {
	for i, peer := range roster {
		blob, pieceIdx := data, 0
		if pieces != nil {
			p := pieces[i%len(pieces)]
			blob, pieceIdx = p.Data, p.Index
		}
		msg := ctx.SendMsg(peer, KindCInvite)
		msg.Item, msg.Aux, msg.Aux2 = key, packInvite(base, pieceIdx), uint64(itemLen)
		ctx.SetTrace(msg, trace)
		ctx.SetPayload(msg, roster, blob)
	}
}

// appendDistinct appends src's ids to dst in order, skipping self and
// anything dst already holds, until dst holds want ids. want is a
// committee or a tree fanout and the lists are rosters — Θ(log n) long —
// so dst is its own seen-set: a linear scan beats building a map per call.
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
// payload, and registers the new member as a landmark for the item; its
// own tree waits for its first tick (maybeWave).
func (h *Handler) onInvite(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	base, pieceIdx := unpackInvite(msg.Aux)
	key, trace := msg.Item, msg.Trace()
	m := st.memberships.get(key)
	if m == nil {
		m = st.memberships.put(&h.slabs[ctx.Shard], key, membership{})
		h.enlist(ctx.Shard, key)
	}
	// The roster and the copy or piece are immutable once sent: the new
	// committee shares the leader's arrays. A re-invited member keeps its
	// epoch scratch's arrays, and its copy if the invite brings none.
	*m = membership{
		key: key, base: base,
		roster:   msg.IDs(),
		joined:   ctx.Round,
		curEpoch: -1,
		trace:    trace,
		data:     m.data,
		pieceIdx: m.pieceIdx,
		itemLen:  m.itemLen,
		sources:  m.sources[:0],
		counts:   m.counts,
		gathered: m.gathered[:0],
	}
	m.counts.reset()
	m.handledEpoch = m.epochOf(ctx.Round, h.P.Period)

	if blob := msg.Blob(); len(blob) > 0 {
		m.data, m.pieceIdx, m.itemLen = blob, -1, int(msg.Aux2)
		if h.code != nil {
			m.pieceIdx = pieceIdx
		}
	}
	h.becomeLandmark(ctx, st, key, m.roster, ctx.Round, 0, trace)
	// A traced store settles when its *creation* invites land (base ==
	// the send round): every founding member emits a done event, and
	// the tracer's first-done-wins aggregation closes the lifecycle
	// deterministically. Handover invites (older base) don't re-close.
	if trace != 0 && base == ctx.Round-1 {
		if tr := ctx.E.Tracer(); tr != nil {
			tr.Emit(ctx.Shard, telemetry.Event{
				Trace: trace, Round: int64(ctx.Round), Kind: telemetry.EvOpDone,
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
	m.release(&h.slabs[ctx.Shard])
	st.memberships.del(msg.Item)
	h.delist(ctx.Shard, msg.Item)
	h.ctr.resignations.Inc(ctx.Shard)
}
