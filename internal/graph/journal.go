package graph

// PortDelta records one port write: adjacency index Idx (= v*d + p)
// became New. A round's delta list, applied in order, transforms the
// round-start adjacency into the round-end adjacency. 8 bytes per
// rewired port — the currency the walk soup's lazy ring pays instead of
// full n·d snapshots.
type PortDelta struct {
	Idx int32
	New int32
}

// journal accumulates the port writes since the last Drain. It is either
// recording (every SetPort appends a PortDelta) or disrupted (a bulk
// rewrite or an over-limit round happened; the delta list is void and
// the consumer must fall back to a full snapshot).
type journal struct {
	deltas    []PortDelta
	limit     int
	disrupted bool
}

// EnableJournal starts recording port writes into a change journal
// drained by DrainJournal. limit bounds the entries kept per drain
// interval: a round that rewires more than limit ports is recorded as a
// disruption instead (consumers snapshot; memory stays bounded).
// limit <= 0 picks n·d/4 — well above paper-churn repair volume, well
// below the cost of a full snapshot.
//
// The journal starts in the disrupted state: the adjacency present at
// enable time has no delta history, so the first drain tells consumers
// to snapshot.
func (g *Graph) EnableJournal(limit int) {
	if limit <= 0 {
		limit = g.n * g.d / 4
		if limit < 64 {
			limit = 64
		}
	}
	g.j = &journal{deltas: make([]PortDelta, 0, 256), limit: limit, disrupted: true}
}

// DrainJournal returns the port deltas recorded since the previous drain
// and whether the interval was disrupted (bulk rewrite or over-limit
// churn: the deltas are void and the caller must snapshot Adjacency
// instead). The returned slice aliases the journal's buffer and is valid
// only until the next port write; callers copy what they keep. Resets
// the journal to recording.
func (g *Graph) DrainJournal() (deltas []PortDelta, disrupted bool) {
	j := g.j
	if j == nil {
		return nil, true
	}
	deltas, disrupted = j.deltas, j.disrupted
	if disrupted {
		deltas = nil
	}
	j.deltas = j.deltas[:0]
	j.disrupted = false
	return deltas, disrupted
}

// record logs one port write. No-op writes (old == new) carry no
// information and are skipped; over-limit rounds collapse to a
// disruption so a pathological churn burst can't balloon the journal
// past snapshot cost.
func (j *journal) record(idx int32, old, new int32) {
	if j.disrupted || old == new {
		return
	}
	if len(j.deltas) >= j.limit {
		j.disrupted = true
		j.deltas = j.deltas[:0]
		return
	}
	j.deltas = append(j.deltas, PortDelta{Idx: idx, New: new})
}

// disrupt voids the current interval: the consumer must snapshot.
// Called by the bulk Fill* constructors, which rewrite every port.
func (j *journal) disrupt() {
	if j == nil {
		return
	}
	j.disrupted = true
	j.deltas = j.deltas[:0]
}

// ApplyDeltas applies a drained delta list forward to adj (a flat n·d
// adjacency array): after the call adj reflects the interval's writes.
func ApplyDeltas(adj []int32, deltas []PortDelta) {
	for _, pd := range deltas {
		adj[pd.Idx] = pd.New
	}
}
