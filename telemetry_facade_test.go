package dynp2p

import (
	"bytes"
	"encoding/json"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"dynp2p/internal/rng"
	"dynp2p/internal/telemetry"
)

// traceWorkload runs a small store+search workload with full tracing and
// returns the network, leaving completed results drained.
func traceWorkload(t *testing.T, workers int, opTrace *bytes.Buffer) *Network {
	t.Helper()
	nw := New(Config{
		N: 256, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 21, Workers: workers,
		TraceSampleEvery: 1,
	})
	if opTrace != nil {
		nw.Tracer().StreamTo(opTrace)
	}
	nw.Run(nw.WarmupRounds())
	data := make([]byte, 64)
	rng.New(2).Fill(data)
	nw.Store(0, 77, data)
	nw.Run(nw.Tunables().Protocol.Period)
	nw.Retrieve(128, 77, data)
	nw.Retrieve(17, 77, data)
	nw.Run(nw.Tunables().Protocol.SearchTTL() + 4)
	if res := nw.Results(); len(res) != 2 {
		t.Fatalf("expected 2 retrievals, got %d", len(res))
	}
	if err := nw.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestTelemetryWorkerCountIndependence pins the telemetry determinism
// contract at the facade level: with tracing enabled, every event metric —
// engine counters, protocol counters, trace histograms, collector-bridged
// soup/overlay counters — must be bit-identical for Workers ∈
// {1, 3, GOMAXPROCS}, as must the operation trace stream itself.
func TestTelemetryWorkerCountIndependence(t *testing.T) {
	run := func(workers int) (string, string, Stats) {
		var ops bytes.Buffer
		nw := traceWorkload(t, workers, &ops)
		var det bytes.Buffer
		if err := telemetry.WriteJSONL(&det, nw.Telemetry().DeterministicSnapshot()); err != nil {
			t.Fatal(err)
		}
		return det.String(), ops.String(), nw.Stats()
	}
	baseDet, baseOps, baseStats := run(1)
	if !strings.Contains(baseDet, "dynp2p_search_hops") {
		t.Fatal("deterministic snapshot missing trace histograms")
	}
	for _, w := range []int{3, runtime.GOMAXPROCS(0)} {
		det, ops, stats := run(w)
		if det != baseDet {
			t.Errorf("workers=%d: deterministic metric snapshot differs:\n%s\nvs\n%s", w, det, baseDet)
		}
		if ops != baseOps {
			t.Errorf("workers=%d: operation trace stream differs", w)
		}
		if stats != baseStats {
			t.Errorf("workers=%d: stats differ:\n%+v\n%+v", w, stats, baseStats)
		}
	}
}

// Line grammars for the two exposition formats. Golden in the schema
// sense: any change to the exporters' shape must update these patterns
// (and whatever downstream tooling parses the files).
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-z0-9_]+ .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-z0-9_]+ (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^[a-z0-9_]+(\{le="(\+Inf|\d+)"\})? -?\d+$`)
)

// TestPrometheusSnapshotSchema pins the Prometheus text exposition
// schema: every line matches the grammar, every expected metric family is
// present, and the deterministic subset renders byte-identically across
// identical runs.
func TestPrometheusSnapshotSchema(t *testing.T) {
	render := func() (full, det string) {
		nw := traceWorkload(t, 0, nil)
		var f, d bytes.Buffer
		if err := telemetry.WritePrometheus(&f, nw.Telemetry().Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WritePrometheus(&d, nw.Telemetry().DeterministicSnapshot()); err != nil {
			t.Fatal(err)
		}
		return f.String(), d.String()
	}
	full, det1 := render()
	for _, line := range strings.Split(strings.TrimSuffix(full, "\n"), "\n") {
		if promHelpRe.MatchString(line) || promTypeRe.MatchString(line) || promSampleRe.MatchString(line) {
			continue
		}
		t.Errorf("prometheus line does not match schema: %q", line)
	}
	for _, family := range []string{
		"dynp2p_engine_rounds_total",
		"dynp2p_engine_msgs_sent_total",
		"dynp2p_engine_mem_out_bytes",
		"dynp2p_engine_mem_xfer_bytes",
		"dynp2p_engine_mem_inbox_arena_bytes",
		"dynp2p_engine_mem_payload_slab_bytes",
		"dynp2p_proto_committees_created_total",
		"dynp2p_proto_inquiry_pairs_total",
		"dynp2p_proto_kind_sinquire_bits_total",
		"dynp2p_proto_kind_cpiece_bits_total",
		"dynp2p_proto_mem_table_bytes",
		"dynp2p_proto_mem_slab_free_bytes",
		"dynp2p_proto_mem_dispersal_bytes",
		"dynp2p_soup_generated_total",
		"dynp2p_soup_mem_ring_bytes",
		"dynp2p_soup_mem_cohort_bytes",
		"dynp2p_soup_mem_samples_bytes",
		"dynp2p_overlay_lambda_e6",
		"dynp2p_search_hops_bucket",
		"dynp2p_search_rounds_to_resolve_count",
		"dynp2p_store_rounds_to_settle_sum",
		"dynp2p_trace_ops_total",
	} {
		if !strings.Contains(full, family) {
			t.Errorf("prometheus snapshot missing %s", family)
		}
	}
	if _, det2 := render(); det1 != det2 {
		t.Error("deterministic prometheus snapshot differs across identical runs")
	}
}

// TestTypedStatsMatchSeries: every value the scenario runner and report
// read through a typed accessor — the tracer's Stats, the handler's
// SearchRounds, the engine's RouteLoad and the route snapshot — equals the
// registry series of the same quantity, on one traced, cached,
// overlay-routed run under churn. The tracer's Done is the number of
// resolutions its op trace streams, Route.Delivered is the hop
// histogram's count, and the busiest link of any round is the max-link
// gauge. A nil tracer reads as zero.
func TestTypedStatsMatchSeries(t *testing.T) {
	nw := New(Config{
		N: 256, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 11,
		TraceSampleEvery: 1,
		Cache:            CacheConfig{Capacity: 2, SeedRate: 0.7},
		Routing:          RoutingConfig{Mode: RoutingOverlay},
	})
	var ops bytes.Buffer
	nw.Tracer().StreamTo(&ops)
	var maxLink int64
	run := func(rounds int) {
		for i := 0; i < rounds; i++ {
			nw.Run(1)
			maxLink = max(maxLink, nw.Engine().RouteLoad().MaxLink)
		}
	}
	run(nw.WarmupRounds())
	data := make([]byte, 64)
	rng.New(4).Fill(data)
	nw.Store(0, 9, data)
	run(nw.Tunables().Protocol.Period)
	for i := 1; i <= 12; i++ {
		nw.Retrieve(i*20, 9, data)
		run(2)
	}
	run(nw.Tunables().Protocol.SearchTTL())
	if err := nw.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}

	series := map[string]telemetry.MetricValue{}
	for _, mv := range nw.Telemetry().Snapshot() {
		series[mv.Name] = mv
	}
	value := func(name string) int64 {
		mv, ok := series[name]
		if !ok {
			t.Fatalf("no series %s", name)
		}
		return mv.Value
	}
	hist := func(name string) telemetry.HistValue {
		mv, ok := series[name]
		if !ok || mv.Hist == nil {
			t.Fatalf("no histogram %s", name)
		}
		return *mv.Hist
	}
	ts := nw.Tracer().Stats()
	cached, uncached := nw.Handler().SearchRounds()
	load := nw.Engine().RouteLoad()
	rt := nw.Stats().Route
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"dynp2p_trace_ops_total", ts.Ops, value("dynp2p_trace_ops_total")},
		{"dynp2p_trace_ops_failed_total", ts.Failed, value("dynp2p_trace_ops_failed_total")},
		{"dynp2p_trace_ops_expired_total", ts.Expired, value("dynp2p_trace_ops_expired_total")},
		{"dynp2p_trace_hop_events_total", ts.HopEvents, value("dynp2p_trace_hop_events_total")},
		{"dynp2p_trace_drop_events_total", ts.DropEvents, value("dynp2p_trace_drop_events_total")},
		{"dynp2p_route_sent_total", rt.Sent, value("dynp2p_route_sent_total")},
		{"dynp2p_route_forwards_total", rt.Forwards, value("dynp2p_route_forwards_total")},
		{"dynp2p_route_dropped_budget_total", rt.DroppedBudget, value("dynp2p_route_dropped_budget_total")},
		{"dynp2p_route_dropped_dead_total", rt.DroppedDead, value("dynp2p_route_dropped_dead_total")},
		{"dynp2p_route_hops_count", rt.Delivered, hist("dynp2p_route_hops").Count},
		{"dynp2p_route_max_link_load", rt.MaxLinkLoad, value("dynp2p_route_max_link_load")},
		{"largest RouteLoad().MaxLink of any round", maxLink, value("dynp2p_route_max_link_load")},
		{`"ev":"done" lines in the op trace`, ts.Done(), int64(strings.Count(ops.String(), `"ev":"done"`))},
	} {
		if c.got != c.want {
			t.Errorf("%s: typed value %d, series %d", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		got  telemetry.HistValue
	}{
		{"dynp2p_search_hops", ts.SearchHops},
		{"dynp2p_search_rounds_to_resolve", ts.SearchRounds},
		{"dynp2p_search_path_hops", ts.SearchPath},
		{"dynp2p_store_hops", ts.StoreHops},
		{"dynp2p_store_rounds_to_settle", ts.StoreRounds},
		{"dynp2p_store_path_hops", ts.StorePath},
		{"dynp2p_search_rounds_cached", cached},
		{"dynp2p_search_rounds_uncached", uncached},
		{"dynp2p_route_hops", load.Hops},
	} {
		if want := hist(c.name); c.got != want {
			t.Errorf("%s: typed histogram (count %d, sum %d) differs from the series (count %d, sum %d)",
				c.name, c.got.Count, c.got.Sum, want.Count, want.Sum)
		}
	}
	// Every comparison above must compare something.
	if ts.StoreRounds.Count == 0 || ts.SearchRounds.Count == 0 || cached.Count == 0 ||
		uncached.Count == 0 || ts.HopEvents == 0 || rt.Delivered == 0 || maxLink == 0 {
		t.Fatalf("the run exercised too little: tracer %d stores, %d searches, %d hop events; %d cache-served, %d committee-served; %d routed deliveries, max link %d",
			ts.StoreRounds.Count, ts.SearchRounds.Count, ts.HopEvents, cached.Count, uncached.Count, rt.Delivered, maxLink)
	}

	var off *telemetry.Tracer
	if got := off.Stats(); got != (telemetry.TraceStats{}) || got.Done() != 0 {
		t.Errorf("nil tracer: Stats() = %+v, want zero", got)
	}
	if New(Config{N: 64, Seed: 1}).Tracer() != nil {
		t.Error("a network without TraceSampleEvery has a tracer")
	}
}

// TestWireKindsAddUp: the per-kind wire counters are in the deterministic
// snapshot, and their messages and bits add up to the engine's own totals —
// every send is counted once, under its kind. The send counts of
// Stats().Proto are read from them; the run has churn and the cache on, so
// each of those counts is nonzero. Under the oracle with reliable links a
// message dead at send is one the engine drops to churn, so the kinds'
// dead counts sum to at most the engine's churn drops.
func TestWireKindsAddUp(t *testing.T) {
	nw := New(Config{
		N: 256, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 5,
		Cache: CacheConfig{Capacity: 2, SeedRate: 0.7},
	})
	nw.Run(nw.WarmupRounds())
	data := make([]byte, 64)
	rng.New(3).Fill(data)
	nw.Store(0, 9, data)
	nw.Run(nw.Tunables().Protocol.Period)
	for i := 1; i <= 12; i++ {
		nw.Retrieve(i*20, 9, data)
		nw.Run(2)
	}
	nw.Run(nw.Tunables().Protocol.SearchTTL())
	sent := map[string]int64{}
	var msgs, bits, dead int64
	for _, mv := range nw.Telemetry().DeterministicSnapshot() {
		name, ok := strings.CutPrefix(mv.Name, "dynp2p_proto_kind_")
		if !ok {
			continue
		}
		if kind, ok := strings.CutSuffix(name, "_msgs_total"); ok {
			sent[kind] = mv.Value
			msgs += mv.Value
		} else if strings.HasSuffix(name, "_bits_total") {
			bits += mv.Value
		} else if strings.HasSuffix(name, "_dead_total") {
			dead += mv.Value
		}
	}
	e := nw.Stats().Engine
	if msgs != e.MsgsSent || bits != e.BitsSent {
		t.Errorf("per-kind counters add up to %d msgs and %d bits, the engine sent %d and %d", msgs, bits, e.MsgsSent, e.BitsSent)
	}
	if dead == 0 || dead > e.MsgsDropped {
		t.Errorf("%d messages dead at send, %d dropped to churn: want 0 < dead ≤ dropped", dead, e.MsgsDropped)
	}
	p := nw.Stats().Proto
	for _, c := range []struct {
		field string
		got   int64
		kinds []string
	}{
		{"InvitesSent", p.InvitesSent, []string{"cinvite"}},
		{"GrowSent", p.GrowSent, []string{"lgrow", "sgrow"}},
		{"Inquiries", p.Inquiries, []string{"sinquire"}},
		{"Dones", p.Dones, []string{"sdone"}},
		{"Founds", p.Founds, []string{"sfound"}},
		{"Fetches", p.Fetches, []string{"sfetch"}},
		{"CacheServed", p.CacheServed, []string{"cachedata"}},
		{"CacheSeeds", p.CacheSeeds, []string{"cacheseed"}},
	} {
		var want int64
		for _, k := range c.kinds {
			want += sent[k]
		}
		if c.got != want || c.got == 0 {
			t.Errorf("Proto.%s = %d, %v series sum to %d (both must be equal and nonzero)", c.field, c.got, c.kinds, want)
		}
	}
}

// TestOpTraceJSONLSchema pins the operation trace's JSONL schema: every
// line is a JSON object with the event-kind-specific required fields, and
// the stream tells a consistent lifecycle story (starts precede hops and
// dones of the same trace).
func TestOpTraceJSONLSchema(t *testing.T) {
	var ops bytes.Buffer
	traceWorkload(t, 0, &ops)
	lines := strings.Split(strings.TrimSpace(ops.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("op trace too short: %d lines", len(lines))
	}
	started := map[string]bool{}
	starts, hops, dones := 0, 0, 0
	for _, line := range lines {
		var rec struct {
			Trace  string  `json:"trace"`
			Round  *int64  `json:"round"`
			Ev     string  `json:"ev"`
			Msg    *uint64 `json:"msg"`
			From   *uint64 `json:"from"`
			To     *uint64 `json:"to"`
			Item   *uint64 `json:"item"`
			Rounds *int64  `json:"rounds"`
			OK     *bool   `json:"ok"`
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("op trace line does not match schema: %q: %v", line, err)
		}
		if rec.Trace == "" || rec.Round == nil || rec.From == nil || rec.To == nil {
			t.Fatalf("op trace line missing required fields: %q", line)
		}
		switch rec.Ev {
		case "start":
			started[rec.Trace] = true
			starts++
		case "hop":
			if rec.Msg == nil {
				t.Fatalf("hop event without msg kind: %q", line)
			}
			if !started[rec.Trace] {
				t.Fatalf("hop before start for trace %s", rec.Trace)
			}
			hops++
		case "done":
			if rec.Rounds == nil || rec.OK == nil {
				t.Fatalf("done event without rounds/ok: %q", line)
			}
			if !started[rec.Trace] {
				t.Fatalf("done before start for trace %s", rec.Trace)
			}
			dones++
		default:
			t.Fatalf("unknown event kind %q in %q", rec.Ev, line)
		}
	}
	if starts == 0 || hops == 0 || dones == 0 {
		t.Fatalf("op trace missing lifecycle stages: starts=%d hops=%d dones=%d", starts, hops, dones)
	}
}

// TestMetricsJSONLSchema pins the metrics JSONL exposition schema.
func TestMetricsJSONLSchema(t *testing.T) {
	nw := traceWorkload(t, 0, nil)
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, nw.Telemetry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Metric  string     `json:"metric"`
			Kind    string     `json:"kind"`
			Value   *int64     `json:"value"`
			Count   *int64     `json:"count"`
			Sum     *int64     `json:"sum"`
			Buckets *[][]int64 `json:"buckets"`
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("metrics line does not match schema: %q: %v", line, err)
		}
		kinds[rec.Metric] = rec.Kind
		switch rec.Kind {
		case "histogram":
			if rec.Count == nil || rec.Sum == nil || rec.Buckets == nil {
				t.Fatalf("histogram line missing count/sum/buckets: %q", line)
			}
			for _, b := range *rec.Buckets {
				if len(b) != 2 {
					t.Fatalf("histogram bucket not a [upper,count] pair: %q", line)
				}
			}
		case "counter", "gauge":
			if rec.Value == nil {
				t.Fatalf("%s line missing value: %q", rec.Kind, line)
			}
		default:
			t.Fatalf("unknown metric kind %q in %q", rec.Kind, line)
		}
	}
	// The memory ledger is collector-fed: one gauge per owner.
	for _, owner := range []string{
		"engine_mem_out", "engine_mem_xfer", "engine_mem_inbox_arena", "engine_mem_payload_slab",
		"soup_mem_ring", "soup_mem_cohort", "soup_mem_samples",
		"proto_mem_table", "proto_mem_slab_free", "proto_mem_dispersal",
	} {
		if name := "dynp2p_" + owner + "_bytes"; kinds[name] != "gauge" {
			t.Errorf("metrics JSONL: %s is %q, want a gauge", name, kinds[name])
		}
	}
}
