package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"dynp2p"
	"dynp2p/internal/churn"
	"dynp2p/internal/overlay"
	"dynp2p/internal/protocol"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// span is one timed interval at a layer boundary. Times are ns since the
// recorder started. Parent indexes the span that caused it (-1 = none);
// Round is the simulated round the work belongs to and is the identifier
// the spans of one round share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	// BusyNS is set on spans that aggregate concurrent or repeated calls
	// (handler sweep, OnJoin): the summed time inside the calls, where
	// End-Start is the interval from the first start to the last end.
	BusyNS int64 `json:"busy_ns,omitempty"`
	Calls  int32 `json:"calls,omitempty"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

func (r *recorder) add(s span) int32 {
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

func (r *recorder) writeFile(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	meta["spans"] = r.spans
	b, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Span names, one per layer entry point.
const (
	spanSetup   = "setup"
	spanRound   = "simnet.round"
	spanSoup    = "walks.step"
	spanOverlay = "overlay.step"
	spanHandle  = "protocol.handle"
	spanOnJoin  = "protocol.onjoin"
	spanRequest = "protocol.request"
	spanDrain   = "protocol.drain"
)

// hookSpan wraps a round hook (soup, overlay) in a span.
type hookSpan struct {
	name  string
	inner simnet.RoundHook
	ts    *tracedStack
}

func (h *hookSpan) StepRound(e *simnet.Engine, round int) {
	t0 := h.ts.rec.now()
	h.inner.StepRound(e, round)
	h.ts.rec.add(span{Name: h.name, Start: t0, End: h.ts.rec.now(), Parent: h.ts.roundSpan, Round: int32(round)})
}

// shardCell accumulates one shard's handler time for the current round.
// The engine runs a shard's slots on one worker, so a cell has a single
// writer; padding keeps neighbouring cells off one cache line.
type shardCell struct {
	busy, first, last int64
	_                 [40]byte
}

// handlerSpan wraps the protocol handler: busy time per shard for
// HandleRound (called concurrently), a running sum for OnJoin (serial).
type handlerSpan struct {
	inner *protocol.Handler
	ts    *tracedStack
	cells []shardCell

	joinBusy, joinFirst, joinLast int64
	joinCalls                     int32
}

func (h *handlerSpan) HandleRound(ctx *simnet.Ctx) {
	t0 := h.ts.rec.now()
	h.inner.HandleRound(ctx)
	t1 := h.ts.rec.now()
	c := &h.cells[ctx.Shard]
	if c.first == 0 {
		c.first = t0
	}
	c.busy += t1 - t0
	c.last = t1
}

func (h *handlerSpan) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	t0 := h.ts.rec.now()
	h.inner.OnJoin(e, slot, id, round)
	t1 := h.ts.rec.now()
	if h.joinCalls == 0 {
		h.joinFirst = t0
	}
	h.joinBusy += t1 - t0
	h.joinLast = t1
	h.joinCalls++
}

func (h *handlerSpan) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	h.inner.OnLeave(e, slot, id, round)
}

// flush turns the round's accumulated handler time into spans.
func (h *handlerSpan) flush(round int32) {
	var busy, first, last int64
	calls := int32(0)
	for i := range h.cells {
		c := &h.cells[i]
		if c.first == 0 {
			continue
		}
		if first == 0 || c.first < first {
			first = c.first
		}
		last = max(last, c.last)
		busy += c.busy
		calls++
		*c = shardCell{}
	}
	if calls > 0 {
		h.ts.rec.add(span{Name: spanHandle, Start: first, End: last, Parent: h.ts.roundSpan, Round: round, BusyNS: busy, Calls: calls})
	}
	if h.joinCalls > 0 {
		h.ts.rec.add(span{Name: spanOnJoin, Start: h.joinFirst, End: h.joinLast, Parent: h.ts.roundSpan, Round: round, BusyNS: h.joinBusy, Calls: h.joinCalls})
		h.joinBusy, h.joinFirst, h.joinLast, h.joinCalls = 0, 0, 0, 0
	}
}

// opTraceEvery is the op tracer's sampling: one operation in this many.
// Tracing every operation costs the flash-crowd workload over 40% of its
// host time; one in sixteen keeps the traced run within a tenth of the
// untraced one and still averages hundreds of searches.
const opTraceEvery = 16

// tracedStack is the same stack dynp2p.NewCustom assembles, built from the
// layers' public constructors with span wrappers around each layer's
// public entry points. It also turns on the engine's own phase profiler
// and the op tracer, whose registry values fill in the engine phases that
// have no public seam.
type tracedStack struct {
	rec *recorder
	e   *simnet.Engine
	sp  *walks.Soup
	ov  *overlay.Overlay
	h   *protocol.Handler
	hs  *handlerSpan

	roundSpan int32
}

func newTracedStack(cfg dynp2p.Config, rec *recorder) *tracedStack {
	ts := &tracedStack{rec: rec, roundSpan: -1}
	// Mirrors dynp2p.NewCustom for the fields the workloads set.
	var law churn.Law = churn.ZeroLaw{}
	if cfg.ChurnRate > 0 {
		law = churn.PaperLaw(cfg.ChurnRate, 0.5)
	}
	ts.e = simnet.New(simnet.Config{
		N: cfg.N, Degree: 8, EdgeMode: cfg.Edges,
		AdversarySeed: cfg.Seed, ProtocolSeed: cfg.Seed + 1,
		Law: law, Workers: cfg.Workers, Shards: cfg.Shards, Routing: cfg.Routing,
	})
	wp := walks.DefaultParams(cfg.N)
	pp := protocol.DefaultParams(cfg.N, wp.WalkLength)
	pp.IDAThreshold = cfg.ErasureK
	pp.CacheCapacity = cfg.Cache.Capacity
	pp.CacheTTL = cfg.Cache.TTL
	pp.CacheSeedRate = cfg.Cache.SeedRate
	ts.sp = walks.NewSoup(ts.e, wp, cfg.Workers)
	ts.e.AddNamedHook("soup", &hookSpan{name: spanSoup, inner: ts.sp, ts: ts})
	ts.ov = overlay.New(ts.e, ts.sp, overlay.Config{})
	ts.e.AddNamedHook("overlay", &hookSpan{name: spanOverlay, inner: ts.ov, ts: ts})
	ts.h = protocol.NewHandler(ts.e, ts.sp, pp)
	ts.hs = &handlerSpan{inner: ts.h, ts: ts, cells: make([]shardCell, ts.e.Grid().Count())}
	ts.e.SetTracer(telemetry.NewTracer(ts.e.Telemetry(), cfg.Seed, opTraceEvery))
	ts.e.EnableProfiling()
	return ts
}

func (ts *tracedStack) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		round := int32(ts.e.Round())
		ts.roundSpan = ts.rec.add(span{Name: spanRound, Start: ts.rec.now(), Parent: -1, Round: round})
		ts.e.Run(ts.hs, 1)
		ts.rec.spans[ts.roundSpan].End = ts.rec.now()
		ts.hs.flush(round)
		ts.roundSpan = -1
	}
}

func (ts *tracedStack) Round() int { return ts.e.Round() }

func (ts *tracedStack) Store(slot int, key uint64, data []byte) {
	t0 := ts.rec.now()
	ts.h.RequestStore(ts.e, slot, key, data)
	ts.rec.add(span{Name: spanRequest, Start: t0, End: ts.rec.now(), Parent: -1, Round: int32(ts.e.Round())})
}

func (ts *tracedStack) Retrieve(slot int, key uint64, expect []byte) {
	t0 := ts.rec.now()
	ts.h.RequestRetrieve(ts.e, slot, key, expect)
	ts.rec.add(span{Name: spanRequest, Start: t0, End: ts.rec.now(), Parent: -1, Round: int32(ts.e.Round())})
}

func (ts *tracedStack) Results() []dynp2p.Result {
	t0 := ts.rec.now()
	r := ts.h.DrainResults()
	ts.rec.add(span{Name: spanDrain, Start: t0, End: ts.rec.now(), Parent: -1, Round: int32(ts.e.Round() - 1)})
	return r
}

func (ts *tracedStack) Stats() dynp2p.Stats {
	return dynp2p.Stats{
		Engine: ts.e.Metrics(), Soup: ts.sp.Metrics(),
		Proto: ts.h.Counters(), Overlay: ts.ov.Metrics(),
		Route: ts.e.RouteMetrics(),
	}
}

func (ts *tracedStack) WarmupRounds() int { return ts.sp.Params().WalkLength + 3 }

func (ts *tracedStack) Tunables() dynp2p.Tunables {
	return dynp2p.Tunables{Walks: ts.sp.Params(), Protocol: ts.h.P}
}

func (ts *tracedStack) Engine() *simnet.Engine     { return ts.e }
func (ts *tracedStack) Handler() *protocol.Handler { return ts.h }
func (ts *tracedStack) Overlay() *overlay.Overlay  { return ts.ov }

// layerTotals sums span time by name over the spans recorded from index
// from on (the timed region). BusyNS is summed separately.
type layerTotals struct {
	dur, busy map[string]int64
}

func (r *recorder) totals(from int) layerTotals {
	t := layerTotals{dur: map[string]int64{}, busy: map[string]int64{}}
	for _, s := range r.spans[from:] {
		t.dur[s.Name] += s.End - s.Start
		t.busy[s.Name] += s.BusyNS
	}
	return t
}
