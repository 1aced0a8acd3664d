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
	nw.Run(nw.Tunables().Protocol.SearchTTL + 4)
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
		"dynp2p_engine_mem_routed_arena_bytes",
		"dynp2p_proto_committees_created_total",
		"dynp2p_proto_inquiry_pairs_total",
		"dynp2p_proto_kind_sinquire_bits_total",
		"dynp2p_proto_kind_cpiece_bits_total",
		"dynp2p_soup_generated_total",
		"dynp2p_soup_mem_ring_bytes",
		"dynp2p_soup_mem_cohort_bytes",
		"dynp2p_soup_mem_samples_bytes",
		"dynp2p_overlay_lambda_e6",
		"dynp2p_search_hops_bucket",
		"dynp2p_search_rounds_to_resolve_count",
		"dynp2p_store_rounds_to_settle_sum",
		"dynp2p_trace_ops_done_total",
	} {
		if !strings.Contains(full, family) {
			t.Errorf("prometheus snapshot missing %s", family)
		}
	}
	if _, det2 := render(); det1 != det2 {
		t.Error("deterministic prometheus snapshot differs across identical runs")
	}
}

// TestWireKindsAddUp: the per-kind wire counters are in the deterministic
// snapshot, and their messages and bits add up to the engine's own totals —
// every send is counted once, under its kind.
func TestWireKindsAddUp(t *testing.T) {
	nw := traceWorkload(t, 0, nil)
	var msgs, bits int64
	kinds := 0
	for _, mv := range nw.Telemetry().DeterministicSnapshot() {
		name, ok := strings.CutPrefix(mv.Name, "dynp2p_proto_kind_")
		switch {
		case !ok:
		case strings.HasSuffix(name, "_msgs_total"):
			msgs += mv.Value
			if mv.Value > 0 {
				kinds++
			}
		case strings.HasSuffix(name, "_bits_total"):
			bits += mv.Value
		}
	}
	e := nw.Stats().Engine
	if msgs != e.MsgsSent || bits != e.BitsSent {
		t.Errorf("per-kind counters add up to %d msgs and %d bits, the engine sent %d and %d", msgs, bits, e.MsgsSent, e.BitsSent)
	}
	if kinds < 6 {
		t.Errorf("only %d kinds sent anything: the workload shows nothing", kinds)
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
		"engine_mem_routed_arena", "soup_mem_ring", "soup_mem_cohort", "soup_mem_samples",
	} {
		if name := "dynp2p_" + owner + "_bytes"; kinds[name] != "gauge" {
			t.Errorf("metrics JSONL: %s is %q, want a gauge", name, kinds[name])
		}
	}
}
