package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterShardMerge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "")
	for sh := 0; sh < NumShards; sh++ {
		c.Add(sh, int64(sh))
	}
	want := int64(NumShards * (NumShards - 1) / 2)
	if got := c.Value(); got != want {
		t.Fatalf("merged counter = %d, want %d", got, want)
	}
	if got := reg.CounterValue("x_total"); got != want {
		t.Fatalf("CounterValue = %d, want %d", got, want)
	}
	if got := reg.CounterValue("missing"); got != 0 {
		t.Fatalf("CounterValue(missing) = %d, want 0", got)
	}
}

func TestHandlesSurviveRelayout(t *testing.T) {
	// Registering more metrics grows the cell grid; earlier handles must
	// keep reading/writing the same logical cells.
	reg := NewRegistry()
	a := reg.Counter("a_total", "")
	a.Add(3, 7)
	h := reg.Histogram("h", "")
	h.Observe(5, 100)
	for i := 0; i < 20; i++ {
		reg.Counter("pad_"+string(rune('a'+i))+"_total", "")
	}
	g := reg.Gauge("g", "")
	g.Set(42)
	if a.Value() != 7 {
		t.Fatalf("counter lost across re-layout: %d", a.Value())
	}
	hv := h.Value()
	if hv.Count != 1 || hv.Sum != 100 {
		t.Fatalf("histogram lost across re-layout: %+v", hv)
	}
	if g.Value() != 42 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestDuplicateRegistrationReturnsSameHandle(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "")
	b := reg.Counter("dup_total", "")
	a.Add(0, 1)
	b.Add(1, 2)
	if a.Value() != 3 || b.Value() != 3 {
		t.Fatalf("duplicate registration split the counter: %d/%d", a.Value(), b.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(int(v)%NumShards, v)
	}
	hv := h.Value()
	if hv.Count != 1000 || hv.Sum != 500500 {
		t.Fatalf("count/sum = %d/%d", hv.Count, hv.Sum)
	}
	// v=1 lands in bucket 1; 512..1000 in bucket 10 (489 values).
	if hv.Buckets[1] != 1 || hv.Buckets[10] != 489 {
		t.Fatalf("buckets: %v", hv.Buckets[:12])
	}
	p50 := hv.Quantile(0.5)
	if p50 < 256 || p50 > 1023 {
		t.Fatalf("p50 = %d, want within log2 bucket of 500", p50)
	}
	if hv.Max() != 1023 {
		t.Fatalf("max = %d, want 1023", hv.Max())
	}
	if (HistValue{}).Quantile(0.5) != 0 || (HistValue{}).Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestObserveZeroAndNegative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("z", "")
	h.Observe(0, 0)
	h.Observe(0, -5)
	hv := h.Value()
	if hv.Buckets[0] != 2 || hv.Count != 2 {
		t.Fatalf("zero/negative bucketing: %+v", hv.Buckets[:2])
	}
}

func TestCellAlignment(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "")
	reg.Counter("b_total", "")
	if reg.stride%cacheLineWords != 0 {
		t.Fatalf("stride %d not cache-line padded", reg.stride)
	}
	if len(reg.cells) != NumShards*reg.stride {
		t.Fatalf("cells %d != %d shards * stride %d", len(reg.cells), NumShards, reg.stride)
	}
}

func TestSnapshotSortedAndCollector(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total", "").Add(0, 1)
	reg.Counter("aa_total", "").Add(0, 2)
	reg.RegisterCollector(func(emit func(string, Kind, int64)) {
		emit("mm_bridged_total", KindCounter, 9)
	})
	snap := reg.Snapshot()
	var names []string
	for _, mv := range snap {
		names = append(names, mv.Name)
	}
	want := []string{"aa_total", "mm_bridged_total", "zz_total"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
}

func TestDeterministicSnapshotExcludesTiming(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ev_total", "")
	reg.TimingCounter("wall_ns_total", "")
	for _, mv := range reg.DeterministicSnapshot() {
		if mv.Timing {
			t.Fatalf("timing metric %s leaked into deterministic snapshot", mv.Name)
		}
	}
	if len(reg.DeterministicSnapshot()) != 1 {
		t.Fatal("expected exactly the event counter")
	}
}

func TestTracerLifecycle(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 1)
	id := tr.Sampled(77, 5)
	if id == 0 {
		t.Fatal("sampleEvery=1 must trace all ops")
	}
	if tr.Sampled(77, 5) != id {
		t.Fatal("sampling not deterministic")
	}
	tr.Emit(3, Event{Trace: id, Round: 10, Kind: EvOpStart, From: 5, Item: 77})
	tr.EndRound(10)
	tr.Emit(7, Event{Trace: id, Round: 11, Kind: EvHop, From: 5, To: 9})
	tr.Emit(2, Event{Trace: id, Round: 12, Kind: EvHop, From: 9, To: 4})
	tr.EndRound(12)
	tr.Emit(1, Event{Trace: id, Round: 14, Kind: EvOpDone, OK: true})
	tr.EndRound(14)

	if got := reg.CounterValue("dynp2p_trace_ops_total"); got != 1 {
		t.Fatalf("ops traced = %d", got)
	}
	if got := tr.Stats().Done(); got != 1 {
		t.Fatalf("ops done = %d", got)
	}
	hops := reg.HistogramValue("dynp2p_search_hops")
	if hops.Count != 1 || hops.Sum != 2 {
		t.Fatalf("hop histogram: %+v", hops)
	}
	rounds := reg.HistogramValue("dynp2p_search_rounds_to_resolve")
	if rounds.Count != 1 || rounds.Sum != 4 {
		t.Fatalf("rounds histogram: count=%d sum=%d", rounds.Count, rounds.Sum)
	}
	if tr.LiveTraces() != 0 {
		t.Fatalf("live traces = %d after done", tr.LiveTraces())
	}
}

func TestTracerStoreVsSearch(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 1)
	id := tr.Sampled(1, 2)
	// OK on a start event flags the op as a store.
	tr.Emit(0, Event{Trace: id, Round: 1, Kind: EvOpStart, OK: true})
	tr.Emit(0, Event{Trace: id, Round: 3, Kind: EvOpDone, OK: true})
	tr.EndRound(3)
	if reg.HistogramValue("dynp2p_store_rounds_to_settle").Count != 1 {
		t.Fatal("store op not recorded in store histogram")
	}
	if reg.HistogramValue("dynp2p_search_rounds_to_resolve").Count != 0 {
		t.Fatal("store op leaked into search histogram")
	}
}

func TestTracerSamplingRate(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 9, 8)
	sampled := 0
	for k := uint64(0); k < 4096; k++ {
		if tr.Sampled(k, k%100) != 0 {
			sampled++
		}
	}
	if sampled < 4096/16 || sampled > 4096/4 {
		t.Fatalf("sampleEvery=8 sampled %d/4096", sampled)
	}
	var off *Tracer
	if off.Sampled(1, 1) != 0 {
		t.Fatal("nil tracer must not sample")
	}
	if NewTracer(NewRegistry(), 1, 0).Sampled(1, 1) != 0 {
		t.Fatal("sampleEvery=0 must disable sampling")
	}
}

func TestTracerExpiry(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 1)
	tr.expireAfter = 10
	id := tr.Sampled(3, 4)
	tr.Emit(0, Event{Trace: id, Round: 0, Kind: EvOpStart})
	tr.EndRound(0)
	tr.EndRound(64) // expiry sweep rounds are multiples of 64
	if tr.LiveTraces() != 0 {
		t.Fatal("idle trace not expired")
	}
	if reg.CounterValue("dynp2p_trace_ops_expired_total") != 1 {
		t.Fatal("expiry not counted")
	}
}

func TestTracerJSONLStream(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 1)
	var buf bytes.Buffer
	tr.StreamTo(&buf)
	id := tr.Sampled(42, 7)
	tr.Emit(0, Event{Trace: id, Round: 5, Kind: EvOpStart, From: 7, Item: 42})
	tr.Emit(0, Event{Trace: id, Round: 6, Kind: EvHop, Msg: 0x10, From: 7, To: 3})
	tr.Emit(0, Event{Trace: id, Round: 9, Kind: EvOpDone, Aux: 4, OK: true})
	tr.EndRound(9)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines: %q", len(lines), buf.String())
	}
	for _, want := range []string{`"ev":"start"`, `"ev":"hop"`, `"ev":"done"`, `"msg":16`, `"rounds":4`, `"ok":true`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("stream missing %s:\n%s", want, buf.String())
		}
	}
}

func TestProfilerStream(t *testing.T) {
	reg := NewRegistry()
	p := NewPhaseProfiler(reg, []string{"churn", "route"})
	var stream bytes.Buffer
	p.StreamTo(&stream)
	for r := int64(0); r < 3; r++ {
		p.Begin()
		p.Lap(0)
		p.Lap(1)
		p.EndRound(r)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(stream.String(), "\n"); n != 3 {
		t.Fatalf("phase stream lines = %d", n)
	}
	if !strings.Contains(stream.String(), `"churn_ns":`) {
		t.Fatalf("stream missing phase field: %s", stream.String())
	}
	// Phase counters are timing metrics: in the full snapshot, absent
	// from the deterministic one.
	phases := 0
	for _, mv := range reg.Snapshot() {
		if strings.HasPrefix(mv.Name, "dynp2p_phase_") {
			phases++
		}
	}
	if phases != 2 {
		t.Fatalf("snapshot holds %d phase counters, want 2", phases)
	}
	for _, mv := range reg.DeterministicSnapshot() {
		if strings.HasPrefix(mv.Name, "dynp2p_phase_") {
			t.Fatalf("phase timing %s in deterministic snapshot", mv.Name)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dynp2p_x_total", "things").Add(0, 5)
	reg.Gauge("dynp2p_g", "").Set(-2)
	h := reg.Histogram("dynp2p_h", "")
	h.Observe(0, 3)
	h.Observe(0, 300)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dynp2p_x_total counter", "dynp2p_x_total 5",
		"# HELP dynp2p_x_total things",
		"# TYPE dynp2p_g gauge", "dynp2p_g -2",
		"# TYPE dynp2p_h histogram",
		`dynp2p_h_bucket{le="3"} 1`,   // 3 is in bucket 2, cumulative 1
		`dynp2p_h_bucket{le="511"} 2`, // 300 in bucket 9
		`dynp2p_h_bucket{le="+Inf"} 2`,
		"dynp2p_h_sum 303", "dynp2p_h_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONLFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "").Add(0, 7)
	h := reg.Histogram("h", "")
	h.Observe(0, 10)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`{"metric":"c_total","kind":"counter","value":7}`,
		`{"metric":"h","kind":"histogram","count":1,"sum":10,"buckets":[[15,1]]}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSONL missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(i&63, 1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_h", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(i&63, int64(i))
	}
}
