package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"dynp2p/internal/rng"
)

// EventKind classifies one trace event in an operation's lifecycle.
type EventKind uint8

const (
	// EvOpStart marks the round an operation (store or search) was issued.
	EvOpStart EventKind = iota
	// EvHop marks one traced protocol message delivered to a node: the
	// unit of the hop-count distribution.
	EvHop
	// EvOpDone marks resolution; Aux carries rounds-to-resolve and OK
	// records success.
	EvOpDone
	// EvDrop marks one traced protocol message discarded by the overlay
	// router (budget exhausted or dead target); Aux carries the
	// route.DropReason code. The operation
	// itself stays open — protocols retry or fail on their own clock.
	EvDrop
)

// String returns the event kind's JSONL name.
func (k EventKind) String() string {
	switch k {
	case EvOpStart:
		return "start"
	case EvHop:
		return "hop"
	case EvOpDone:
		return "done"
	case EvDrop:
		return "drop"
	}
	return "unknown"
}

// Event is one record in an operation trace. From/To are node IDs (not
// slots) so traces survive churn-driven slot reuse.
type Event struct {
	Trace uint64
	Round int64
	Kind  EventKind
	Msg   uint8 // protocol message kind for hop events (0 otherwise)
	From  uint64
	To    uint64
	Item  uint64
	Aux   int64 // done: rounds-to-resolve; hop: payload bits; drop: reason
	Path  int32 // hop: true overlay path length (0 when oracle-delivered)
	OK    bool  // done: whether the operation succeeded
}

// traceEventBuf is a per-shard event staging buffer, padded so adjacent
// shards' headers don't share a cache line while workers append.
type traceEventBuf struct {
	ev []Event
	_  [40]byte
}

// traceAgg accumulates per-trace state between an op's start and done.
type traceAgg struct {
	start    int64
	lastSeen int64
	hops     int64
	path     int64 // accumulated true overlay path length across hops
	isStore  bool
}

// Tracer samples operation lifecycles deterministically and aggregates
// their events into hop-count and rounds-to-resolve histograms. The
// sampling decision — and therefore every event metric derived from it —
// is a pure hash of (seed, key, issuer), independent of worker count and
// of wall-clock time.
//
// Writers call Sampled at op issue; if it returns a nonzero trace ID they
// stamp it on outgoing protocol messages, and every subsystem that sees a
// stamped message calls Emit from its shard. EndRound (engine-serial)
// merges the per-shard buffers in fixed shard order, updates the
// histograms, and optionally streams JSONL.
type Tracer struct {
	seed        uint64
	sampleEvery uint64

	bufs [NumShards]traceEventBuf

	live map[uint64]traceAgg

	// round-merged event scratch, reused across rounds
	merged []Event

	searchHops   Histogram
	searchRounds Histogram
	searchPath   Histogram
	storeHops    Histogram
	storeRounds  Histogram
	storePath    Histogram
	opsTraced    Counter
	opsFailed    Counter
	hopEvents    Counter
	dropEvents   Counter
	opsExpired   Counter

	w   *bufio.Writer // nil when not streaming
	buf []byte        // JSONL line scratch, reused

	// expireAfter bounds live-trace lifetime: a trace idle this many
	// rounds is dropped (counted in opsExpired) so lost ops can't leak.
	expireAfter int64
}

// NewTracer returns a tracer registering its histograms/counters on reg.
// sampleEvery picks roughly 1/sampleEvery of operations (1 = trace all,
// 0 disables sampling entirely).
func NewTracer(reg *Registry, seed uint64, sampleEvery int) *Tracer {
	t := &Tracer{
		seed:        seed,
		sampleEvery: uint64(sampleEvery),
		live:        make(map[uint64]traceAgg),
		expireAfter: 4096,

		searchHops:   reg.Histogram("dynp2p_search_hops", "delivered protocol messages per traced search"),
		searchRounds: reg.Histogram("dynp2p_search_rounds_to_resolve", "rounds from search issue to resolution"),
		searchPath:   reg.Histogram("dynp2p_search_path_hops", "true overlay path length accumulated per traced search"),
		storeHops:    reg.Histogram("dynp2p_store_hops", "delivered protocol messages per traced store"),
		storeRounds:  reg.Histogram("dynp2p_store_rounds_to_settle", "rounds from store issue to committee settlement"),
		storePath:    reg.Histogram("dynp2p_store_path_hops", "true overlay path length accumulated per traced store"),
		opsTraced:    reg.Counter("dynp2p_trace_ops_total", "operations selected for tracing"),
		opsFailed:    reg.Counter("dynp2p_trace_ops_failed_total", "traced operations resolved unsuccessfully"),
		hopEvents:    reg.Counter("dynp2p_trace_hop_events_total", "hop events recorded across traced operations"),
		dropEvents:   reg.Counter("dynp2p_trace_drop_events_total", "routed-message drop events recorded across traced operations"),
		opsExpired:   reg.Counter("dynp2p_trace_ops_expired_total", "traced operations dropped after going idle"),
	}
	for i := range t.bufs {
		t.bufs[i].ev = make([]Event, 0, 64)
	}
	return t
}

// TraceStats is a merged snapshot of what the tracer has counted: the
// operations it traced, resolved unsuccessfully and expired idle, the hop
// and drop events of live operations, and the six per-operation
// histograms. Read it between rounds.
type TraceStats struct {
	Ops, Failed, Expired  int64
	HopEvents, DropEvents int64

	SearchHops, SearchRounds, SearchPath HistValue
	StoreHops, StoreRounds, StorePath    HistValue
}

// Done returns the traced operations resolved. EndRound records every
// resolution as one observation of SearchRounds or StoreRounds, so their
// counts are the tally.
func (s TraceStats) Done() int64 { return s.SearchRounds.Count + s.StoreRounds.Count }

// Stats returns the tracer's merged counters and histograms; a nil tracer
// (tracing off) returns the zero value.
func (t *Tracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	return TraceStats{
		Ops: t.opsTraced.Value(), Failed: t.opsFailed.Value(), Expired: t.opsExpired.Value(),
		HopEvents: t.hopEvents.Value(), DropEvents: t.dropEvents.Value(),
		SearchHops: t.searchHops.Value(), SearchRounds: t.searchRounds.Value(), SearchPath: t.searchPath.Value(),
		StoreHops: t.storeHops.Value(), StoreRounds: t.storeRounds.Value(), StorePath: t.storePath.Value(),
	}
}

// StreamTo directs per-event JSONL output to w (nil stops streaming).
// Lines are written during EndRound; callers flush by calling Flush.
func (t *Tracer) StreamTo(w io.Writer) {
	if w == nil {
		t.w = nil
		return
	}
	t.w = bufio.NewWriterSize(w, 1<<16)
}

// Flush drains any buffered JSONL output.
func (t *Tracer) Flush() error {
	if t.w == nil {
		return nil
	}
	return t.w.Flush()
}

// Sampled decides whether the operation identified by (key, issuer) is
// traced. Returns the operation's trace ID (nonzero) when sampled, else
// 0. The decision is a pure function of (tracer seed, key, issuer): the
// same op is sampled identically at any worker count.
func (t *Tracer) Sampled(key, issuer uint64) uint64 {
	if t == nil || t.sampleEvery == 0 {
		return 0
	}
	h := rng.Hash(t.seed, key, issuer)
	if h%t.sampleEvery != 0 {
		return 0
	}
	return h | 1 // trace IDs are nonzero by construction
}

// Emit stages ev in shard sh's buffer. Callers must hold the shard (i.e.
// be the goroutine shard.Run assigned it to), or be serial.
func (t *Tracer) Emit(sh int, ev Event) {
	b := &t.bufs[sh]
	b.ev = append(b.ev, ev)
}

// EndRound merges the round's staged events in fixed shard order, updates
// aggregates and histograms, expires idle traces, and streams JSONL if
// configured. Must run serially between rounds. round is the engine round
// the events belong to.
func (t *Tracer) EndRound(round int64) {
	t.merged = t.merged[:0]
	for sh := 0; sh < NumShards; sh++ {
		b := &t.bufs[sh]
		t.merged = append(t.merged, b.ev...)
		b.ev = b.ev[:0]
	}
	// Shard order is canonical but within-round event order across shards
	// depends only on (shard, staging order), both worker-independent.
	// Two passes: starts and hops first, dones second, so hops delivered
	// in an op's final round are counted no matter which shard staged the
	// done event. JSONL order follows the same discipline.
	for i := range t.merged {
		ev := &t.merged[i]
		switch ev.Kind {
		case EvOpStart:
			// Start events carry isStore in OK.
			t.live[ev.Trace] = traceAgg{start: ev.Round, lastSeen: ev.Round, isStore: ev.OK}
			t.opsTraced.Inc(0)
		case EvHop:
			// Traced ops' stamps outlive them (committee maintenance keeps
			// carrying the ID); only hops of still-open ops count or stream.
			agg, ok := t.live[ev.Trace]
			if !ok {
				continue
			}
			t.hopEvents.Inc(0)
			agg.hops++
			agg.path += int64(ev.Path)
			agg.lastSeen = ev.Round
			t.live[ev.Trace] = agg
		case EvDrop:
			agg, ok := t.live[ev.Trace]
			if !ok {
				continue
			}
			t.dropEvents.Inc(0)
			agg.lastSeen = ev.Round
			t.live[ev.Trace] = agg
		default:
			continue
		}
		if t.w != nil {
			t.writeJSON(ev)
		}
	}
	for i := range t.merged {
		ev := &t.merged[i]
		if ev.Kind != EvOpDone {
			continue
		}
		if agg, ok := t.live[ev.Trace]; ok {
			rounds := ev.Round - agg.start
			if ev.Aux > 0 {
				rounds = ev.Aux
			}
			if agg.isStore {
				t.storeHops.Observe(0, agg.hops)
				t.storeRounds.Observe(0, rounds)
				t.storePath.Observe(0, agg.path)
			} else {
				t.searchHops.Observe(0, agg.hops)
				t.searchRounds.Observe(0, rounds)
				t.searchPath.Observe(0, agg.path)
			}
			if !ev.OK {
				t.opsFailed.Inc(0)
			}
			delete(t.live, ev.Trace)
			if t.w != nil {
				t.writeJSON(ev)
			}
		}
	}
	// Expire idle traces so a lost op can't pin an agg forever. The map
	// iteration order is irrelevant: expiry only deletes entries and adds
	// to one counter.
	if round%64 == 0 {
		for id, agg := range t.live {
			if round-agg.lastSeen > t.expireAfter {
				delete(t.live, id)
				t.opsExpired.Inc(0)
			}
		}
	}
}

// writeJSON appends one trace event as a JSONL line. Hand-rolled to keep
// the hot path free of encoding/json reflection and allocation.
func (t *Tracer) writeJSON(ev *Event) {
	b := t.buf[:0]
	b = append(b, `{"trace":"`...)
	b = strconv.AppendUint(b, ev.Trace, 16)
	b = append(b, `","round":`...)
	b = strconv.AppendInt(b, ev.Round, 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if ev.Kind == EvHop || ev.Kind == EvDrop {
		b = append(b, `,"msg":`...)
		b = strconv.AppendUint(b, uint64(ev.Msg), 10)
	}
	if ev.Kind == EvHop && ev.Path > 0 {
		b = append(b, `,"path":`...)
		b = strconv.AppendInt(b, int64(ev.Path), 10)
	}
	if ev.Kind == EvDrop {
		b = append(b, `,"reason":`...)
		b = strconv.AppendInt(b, ev.Aux, 10)
	}
	b = append(b, `,"from":`...)
	b = strconv.AppendUint(b, ev.From, 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendUint(b, ev.To, 10)
	if ev.Item != 0 {
		b = append(b, `,"item":`...)
		b = strconv.AppendUint(b, ev.Item, 10)
	}
	if ev.Kind == EvOpDone {
		b = append(b, `,"rounds":`...)
		b = strconv.AppendInt(b, ev.Aux, 10)
		b = append(b, `,"ok":`...)
		b = strconv.AppendBool(b, ev.OK)
	}
	b = append(b, '}', '\n')
	t.buf = b
	t.w.Write(b)
}
