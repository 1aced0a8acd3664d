package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynp2p/internal/protocol"
	"dynp2p/internal/walks"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		spec, err := Builtin(name, 256, 9)
		if err != nil {
			t.Fatalf("Builtin(%s): %v", name, err)
		}
		data, err := spec.MarshalIndent()
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("reparse %s: %v", name, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("%s: spec changed across JSON round-trip:\n%+v\nvs\n%+v", name, spec, back)
		}
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown field":       `{"name":"x","n":64,"phases":[{"name":"p","rounds":5}],"bogus":1}`,
		"tiny n":              `{"name":"x","n":4,"phases":[{"name":"p","rounds":5}]}`,
		"no phases":           `{"name":"x","n":64,"phases":[]}`,
		"zero rounds":         `{"name":"x","n":64,"phases":[{"name":"p","rounds":0}]}`,
		"drop too high":       `{"name":"x","n":64,"fault":{"drop":1.5},"phases":[{"name":"p","rounds":5}]}`,
		"negative rate":       `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"load":{"storeRate":-1}}]}`,
		"odd degree":          `{"name":"x","n":64,"degree":7,"phases":[{"name":"p","rounds":5}]}`,
		"bad strategy":        `{"name":"x","n":64,"strategy":"chaotic","phases":[{"name":"p","rounds":5}]}`,
		"negative churn":      `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"churn":{"fixed":-2}}]}`,
		"negative delay":      `{"name":"x","n":64,"fault":{"delayProb":0.5,"maxDelay":-1},"phases":[{"name":"p","rounds":5}]}`,
		"delay without max":   `{"name":"x","n":64,"fault":{"delayProb":0.2},"phases":[{"name":"p","rounds":5}]}`,
		"max without delay":   `{"name":"x","n":64,"fault":{"drop":0.1,"maxDelay":2},"phases":[{"name":"p","rounds":5}]}`,
		"phase fault block":   `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"fault":{"drop":0.1}}]}`,
		"negative delta":      `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"churn":{"rate":0.5,"delta":-0.9}}]}`,
		"overwide burst":      `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"churn":{"burstPeriod":4,"burstWidth":10,"burstCount":8}}]}`,
		"bad route mode":      `{"name":"x","n":64,"routing":{"mode":"teleport"},"phases":[{"name":"p","rounds":5}]}`,
		"phase routing block": `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"routing":{"mode":"overlay"}}]}`,
		"negative budget":     `{"name":"x","n":64,"routing":{"mode":"overlay","walkBudget":-1},"phases":[{"name":"p","rounds":5}]}`,
		"negative capacity":   `{"name":"x","n":64,"routing":{"mode":"overlay","linkCapacity":-2},"phases":[{"name":"p","rounds":5}]}`,
		"malformed json":      `{"name":`,
	}
	for label, in := range cases {
		if label != "malformed json" && !json.Valid([]byte(in)) {
			t.Errorf("%s: the case is not valid JSON: %s", label, in)
		}
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", label, in)
		}
	}
	valid := `{"name":"x","n":64,"fault":{"drop":0.1,"delayProb":0.2,"maxDelay":2},"phases":[{"name":"p","rounds":5}]}`
	if spec, err := ParseSpec([]byte(valid)); err != nil || spec.Fault != (Fault{Drop: 0.1, DelayProb: 0.2, MaxDelay: 2}) {
		t.Errorf("spec-level fault block: %+v, %v", spec.Fault, err)
	}
}

func TestParseSpecAppliesDefaults(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"name":"x","n":64,"phases":[{"name":"p","rounds":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Degree != 8 || spec.Keys != 16 || spec.ItemLen != 128 || spec.ZipfS != 0.9 || spec.Strategy != "uniform" {
		t.Fatalf("defaults not applied: %+v", spec)
	}
}

// testSpec builds a small three-phase spec over lossy links with sharply
// distinguishable phase behaviour: quiet, then fixed churn, then quiet
// again.
func testSpec() Spec {
	return Spec{
		Name: "phases", N: 64, Seed: 5, Keys: 4, ItemLen: 32,
		Fault: Fault{Drop: 0.3},
		Phases: []Phase{
			{Name: "quiet", Rounds: 12, Load: Workload{StoreRate: 1}},
			{Name: "churny", Rounds: 10, Churn: Churn{Fixed: 3}, Load: Workload{RetrieveRate: 0.5}},
			{Name: "late", Rounds: 10, Load: Workload{RetrieveRate: 0.5}},
		},
	}
}

func TestPhaseTransitions(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Run(testSpec(), Options{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}

	var recs []TraceRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r TraceRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	if len(recs) != rep.Rounds {
		t.Fatalf("trace has %d lines, report says %d rounds", len(recs), rep.Rounds)
	}

	// The timeline must be warmup, quiet, churny, late, drain in order
	// with the spec's durations.
	spec := rep.Spec
	wantPhases := []struct {
		name   string
		rounds int
	}{
		{"warmup", spec.WarmupRounds()},
		{"quiet", 12},
		{"churny", 10},
		{"late", 10},
		{"drain", spec.DrainRounds()},
	}
	i := 0
	for _, w := range wantPhases {
		for j := 0; j < w.rounds; j++ {
			if recs[i].Phase != w.name {
				t.Fatalf("round %d: phase %q, want %q", i, recs[i].Phase, w.name)
			}
			if recs[i].Round != i {
				t.Fatalf("trace round numbering broken at %d: %d", i, recs[i].Round)
			}
			i++
		}
	}
	if i != len(recs) {
		t.Fatalf("trace has %d extra rounds", len(recs)-i)
	}

	// Per-phase behaviour: churn only in "churny" (warmup inherits phase
	// 0's law = quiet); the run's fault model drops from warm-up to drain,
	// and the trace accounts for every drop.
	var drops int64
	for _, r := range recs {
		want := 0
		if r.Phase == "churny" {
			want = 3
		}
		if r.Churned != want {
			t.Fatalf("round %d (%s): churned %d, want %d", r.Round, r.Phase, r.Churned, want)
		}
		drops += r.FaultDrop
	}
	if drops == 0 || drops != rep.Stats.Engine.MsgsFaultDropped {
		t.Fatalf("trace shows %d fault drops, the engine %d", drops, rep.Stats.Engine.MsgsFaultDropped)
	}

	// Request accounting: every issued retrieval is eventually completed
	// or lost; phase SLOs sum to the total.
	tot := rep.Total
	if tot.Issued != tot.Completed+tot.Lost {
		t.Fatalf("accounting: issued %d != completed %d + lost %d", tot.Issued, tot.Completed, tot.Lost)
	}
	if tot.Completed != tot.Succeeded+tot.Failed {
		t.Fatalf("accounting: completed %d != ok %d + fail %d", tot.Completed, tot.Succeeded, tot.Failed)
	}
	var sum SLO
	for _, p := range rep.Phases {
		sum.StoresIssued += p.SLO.StoresIssued
		sum.Issued += p.SLO.Issued
		sum.Completed += p.SLO.Completed
		sum.Succeeded += p.SLO.Succeeded
		sum.Failed += p.SLO.Failed
		sum.Lost += p.SLO.Lost
	}
	if sum.StoresIssued != tot.StoresIssued || sum.Issued != tot.Issued ||
		sum.Completed != tot.Completed || sum.Succeeded != tot.Succeeded ||
		sum.Failed != tot.Failed || sum.Lost != tot.Lost {
		t.Fatalf("phase SLOs don't sum to total:\nphases %+v\ntotal  %+v", sum, tot)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() (*Report, string, string) {
		var trace, out bytes.Buffer
		rep, err := Run(testSpec(), Options{Trace: &trace})
		if err != nil {
			t.Fatal(err)
		}
		rep.Fprint(&out)
		return rep, trace.String(), out.String()
	}
	rep1, trace1, out1 := run()
	rep2, trace2, out2 := run()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("reports differ across identical runs:\n%+v\nvs\n%+v", rep1, rep2)
	}
	if trace1 != trace2 {
		t.Fatal("traces differ across identical runs")
	}
	if out1 != out2 {
		t.Fatal("rendered reports differ across identical runs")
	}
}

// TestReportItemsMatchNetwork pins the per-item block: after a steady run
// it lists every stored key in store order, each row is what the
// finished network's CopyCount/LandmarkCount/CommitteeSize return (a key
// lost to churn reads as zeros, not as a failure), and the rendered
// report — items included — is byte-identical across two runs.
func TestReportItemsMatchNetwork(t *testing.T) {
	spec, err := Builtin("steady", 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	render := func() (*runner, string) {
		r, err := run(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		r.report().Fprint(&out)
		return r, out.String()
	}
	r, out := render()
	items := r.report().Items
	if len(r.stored) == 0 || len(items) != len(r.stored) {
		t.Fatalf("report lists %d items, runner stored %d keys", len(items), len(r.stored))
	}
	for i, it := range items {
		want := ItemState{
			Key: r.stored[i], Copies: r.nw.CopyCount(r.stored[i]),
			Landmarks: r.nw.LandmarkCount(r.stored[i]), Committee: r.nw.CommitteeSize(r.stored[i]),
		}
		if it != want {
			t.Fatalf("item row %d = %+v, network says %+v", i, it, want)
		}
		row := fmt.Sprintf("  item %d: copies=%d landmarks=%d committee=%d\n", it.Key, it.Copies, it.Landmarks, it.Committee)
		if !strings.Contains(out, row) {
			t.Fatalf("rendered report lacks %q:\n%s", row, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("\nitems: %d stored", len(items))) {
		t.Fatalf("rendered report lacks the items: header:\n%s", out)
	}
	if _, again := render(); again != out {
		t.Fatal("rendered report differs across two runs of the same spec")
	}
}

func TestBuiltinsSmoke(t *testing.T) {
	// Every builtin must run end to end at a small size. This is the CI
	// guard that the whole library stays executable.
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Builtin(name, 128, 2)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rounds != spec.TotalRounds() {
				t.Fatalf("ran %d rounds, spec says %d", rep.Rounds, spec.TotalRounds())
			}
			tot := rep.Total
			if tot.StoresIssued == 0 {
				t.Fatal("no stores issued")
			}
			if tot.Issued == 0 {
				t.Fatal("no retrievals issued")
			}
			if tot.Issued != tot.Completed+tot.Lost {
				t.Fatalf("accounting: issued %d != completed %d + lost %d",
					tot.Issued, tot.Completed, tot.Lost)
			}
			var msgs, bits int64
			for _, k := range rep.Wire {
				msgs, bits = msgs+k.Msgs, bits+k.Bits
			}
			if eng := rep.Stats.Engine; msgs != eng.MsgsSent || bits != eng.BitsSent {
				t.Fatalf("wire lines add up to %d msgs, %d bits; the engine sent %d, %d", msgs, bits, eng.MsgsSent, eng.BitsSent)
			}
			var out bytes.Buffer
			rep.Fprint(&out)
			if !strings.Contains(out.String(), "TOTAL") {
				t.Fatal("report table missing TOTAL row")
			}
		})
	}
}

// TestDrainCoversSearchTTL pins the drain contract: DrainRounds must
// cover the protocol's SearchTTL under every builtin scenario shape, so
// retrievals issued in the very last phase round either complete or
// expire inside the run — they are never miscounted as Lost merely
// because the run ended. The witness is a zero-fault, zero-churn steady
// run: with no churn no searcher can legitimately be lost, so any Lost
// at all means the drain tail is too short (or the end-of-run sweep
// reaped an in-flight request).
func TestDrainCoversSearchTTL(t *testing.T) {
	wp := walks.DefaultParams(128)
	ttl := protocol.DefaultParams(128, wp.WalkLength).SearchTTL
	for _, name := range Names() {
		spec, err := Builtin(name, 128, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.DrainRounds(); got < ttl {
			t.Fatalf("%s: DrainRounds() = %d < SearchTTL %d", name, got, ttl)
		}
	}
	spec := Spec{
		Name: "drain-steady", N: 128, Seed: 9,
		Phases: []Phase{
			{Name: "seed", Rounds: 30, Load: Workload{StoreRate: 0.5, RetrieveRate: 0.3}},
			{Name: "serve", Rounds: 30, Load: Workload{RetrieveRate: 1.5}},
		},
	}
	spec.normalize()
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Total
	if tot.Issued == 0 {
		t.Fatal("no retrievals issued; the run exercised nothing")
	}
	if tot.Lost != 0 {
		t.Fatalf("zero-fault zero-churn steady run reports Lost = %d (of %d issued); "+
			"in-flight retrievals at run end were miscounted", tot.Lost, tot.Issued)
	}
	if tot.Issued != tot.Completed {
		t.Fatalf("accounting: issued %d != completed %d with nothing lost", tot.Issued, tot.Completed)
	}
}

func TestUnknownBuiltin(t *testing.T) {
	if _, err := Builtin("no-such", 128, 1); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// TestTopologyBlock pins the spec's topology block: parsing, defaults,
// and validation of edge-mode names. The edge mode and the cache are the
// run's, so a phase-level "edges" or "cache" key is an unknown field; the
// degree is the spec's, so a "degree" inside the block is one too.
func TestTopologyBlock(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "topo", "n": 64, "seed": 1, "degree": 6,
		"topology": {"edges": "self-healing", "spectralEvery": 2},
		"phases": [
			{"name": "a", "rounds": 5},
			{"name": "b", "rounds": 5}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Degree != 6 {
		t.Fatalf("top-level degree not applied: degree=%d", spec.Degree)
	}
	if m, err := spec.edgeMode(); err != nil || m.String() != "self-healing" {
		t.Fatalf("edgeMode = %v, %v", m, err)
	}

	bad := map[string]string{
		"bad spec mode": `{"name":"x","n":64,"topology":{"edges":"mesh"},"phases":[{"name":"p","rounds":5}]}`,
		"periodic":      `{"name":"x","n":64,"topology":{"edges":"periodic"},"phases":[{"name":"p","rounds":5}]}`,
		"ring":          `{"name":"x","n":64,"topology":{"edges":"ring+random"},"phases":[{"name":"p","rounds":5}]}`,
		"neg spectral":  `{"name":"x","n":64,"topology":{"spectralEvery":-1},"phases":[{"name":"p","rounds":5}]}`,
		"phase edges":   `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"edges":"rerandomize"}]}`,
		"phase cache":   `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"cache":{"capacity":4}}]}`,
		"block degree":  `{"name":"x","n":64,"topology":{"degree":6},"phases":[{"name":"p","rounds":5}]}`,
	}
	for what, in := range bad {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Fatalf("%s: not rejected", what)
		}
	}
}

// TestSelfHealingLambdaTrace runs a two-phase self-healing spec with
// per-round spectral telemetry whose first phase has no churn: repairs
// must happen only once churn starts, the trace must carry lambda values,
// and the phase reports must carry the per-phase spectral maxima.
func TestSelfHealingLambdaTrace(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "heal", "n": 128, "seed": 3,
		"topology": {"edges": "self-healing", "spectralEvery": 1},
		"phases": [
			{"name": "calm", "rounds": 8,
			 "load": {"storeRate": 0.5, "retrieveRate": 0.5}},
			{"name": "storm", "rounds": 8, "churn": {"fixed": 4},
			 "load": {"retrieveRate": 0.5}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	rep, err := Run(spec, Options{Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	var calm, storm *PhaseReport
	for i := range rep.Phases {
		switch rep.Phases[i].Name {
		case "calm":
			calm = &rep.Phases[i]
		case "storm":
			storm = &rep.Phases[i]
		}
	}
	if calm == nil || storm == nil {
		t.Fatal("missing phase reports")
	}
	if calm.Repairs != 0 {
		t.Fatalf("repairs without churn: %d", calm.Repairs)
	}
	if storm.Repairs == 0 {
		t.Fatal("no repairs under churn")
	}
	if calm.LambdaMax <= 0 || calm.LambdaMax >= 1 || storm.LambdaMax <= 0 || storm.LambdaMax >= 1 {
		t.Fatalf("implausible per-phase λ maxima: calm=%v storm=%v", calm.LambdaMax, storm.LambdaMax)
	}
	// Every traced round carries a lambda (spectralEvery=1); repairs
	// appear only in storm-phase records.
	lambdas, stormRepairs := 0, int64(0)
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var rec TraceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.Lambda != nil {
			lambdas++
		}
		if rec.Phase != "storm" && rec.Repairs != 0 {
			t.Fatalf("trace shows repairs outside the churned phase: %+v", rec)
		}
		stormRepairs += rec.Repairs
	}
	if lambdas != rep.Rounds {
		t.Fatalf("lambda on %d of %d traced rounds (want all: spectralEvery=1)", lambdas, rep.Rounds)
	}
	if stormRepairs != storm.Repairs {
		t.Fatalf("trace shows %d repairs, the storm phase report %d", stormRepairs, storm.Repairs)
	}
	var out bytes.Buffer
	rep.Fprint(&out)
	if !strings.Contains(out.String(), "λ last") || !strings.Contains(out.String(), "λmax by phase") {
		t.Fatalf("report missing topology lines:\n%s", out.String())
	}
}

// TestSplitPhaseIsInvisible: a phase boundary that changes nothing must
// change nothing. One 40-round phase over lossy links and the same phase
// split into two identical 20-round phases give equal stats and totals;
// the messages the fault model is delaying at the boundary land as if it
// were not there. Oracle routing, because the routed max-link gauge
// resets per segment.
func TestSplitPhaseIsInvisible(t *testing.T) {
	p := Phase{
		Name: "serve", Rounds: 40, Churn: Churn{Rate: 0.5},
		Load: Workload{StoreRate: 0.5, RetrieveRate: 1.5},
	}
	half := p
	half.Rounds = 20
	whole := Spec{
		Name: "split", N: 128, Seed: 4, Phases: []Phase{p},
		Fault: Fault{Drop: 0.1, DelayProb: 0.2, MaxDelay: 2},
	}
	split := whole
	split.Phases = []Phase{half, half}
	a, err := Run(whole, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(split, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("split phase changed the run's stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Total != b.Total {
		t.Fatalf("split phase changed the run's totals:\n%+v\n%+v", a.Total, b.Total)
	}
}

// TestHotPathCachedBeatsCold pins the contrast hot-path-congestion exists
// to show, as two runs at one seed (the cache is the run's): in the crowd
// phase the cached run drops fewer routed messages, loads its busiest
// link less, and serves most of its successes from a cache.
func TestHotPathCachedBeatsCold(t *testing.T) {
	crowd := func(capacity int) PhaseReport {
		spec, err := Builtin("hot-path-congestion", 128, 2)
		if err != nil {
			t.Fatal(err)
		}
		spec.Cache.Capacity = capacity
		rep, err := Run(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Phases {
			if p.Name == "crowd" {
				return p
			}
		}
		t.Fatal("no crowd phase in the report")
		return PhaseReport{}
	}
	cached, cold := crowd(8), crowd(0)
	if cached.RouteDrops >= cold.RouteDrops {
		t.Errorf("routed drops: cached %d, cold %d", cached.RouteDrops, cold.RouteDrops)
	}
	if cached.MaxLinkLoad >= cold.MaxLinkLoad {
		t.Errorf("max link load: cached %d, cold %d", cached.MaxLinkLoad, cold.MaxLinkLoad)
	}
	if 2*cached.SLO.CacheHits <= cached.SLO.Succeeded {
		t.Errorf("cache-served %d of %d successes, want most", cached.SLO.CacheHits, cached.SLO.Succeeded)
	}
	if cold.SLO.CacheHits != 0 {
		t.Errorf("cold run served %d retrievals from a cache", cold.SLO.CacheHits)
	}
}

// TestRoutedScenario runs a small spec in overlay mode end to end: every
// workload phase must carry routed link load, Stats routed traffic, with
// zero id-addressed teleports (every engine delivery went through the
// router), and the report must render the routed table columns.
func TestRoutedScenario(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "routed", "n": 64, "seed": 11, "keys": 4,
		"routing": {"mode": "overlay", "walkBudget": 512},
		"phases": [
			{"name": "seed", "rounds": 12, "churn": {"rate": 0.5}, "load": {"storeRate": 1}},
			{"name": "serve", "rounds": 20, "churn": {"rate": 0.5}, "load": {"retrieveRate": 1}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Succeeded == 0 {
		t.Fatal("no successful retrievals over the overlay")
	}
	for _, p := range rep.Phases {
		if (p.Name == "seed" || p.Name == "serve") && p.MaxLinkLoad == 0 {
			t.Fatalf("phase %s carries no routed link load", p.Name)
		}
	}
	rt := rep.Stats.Route
	if rt.Sent == 0 || rt.Delivered == 0 || rt.Forwards == 0 {
		t.Fatalf("no routed traffic in stats: %+v", rt)
	}
	if got, want := rep.Stats.Engine.MsgsDelivered, rt.Delivered; got != want {
		t.Fatalf("teleported deliveries in overlay mode: engine %d, router %d", got, want)
	}
	var out bytes.Buffer
	rep.Fprint(&out)
	for _, col := range []string{"hopP50", "hopP99", "rDrop", "maxLink", "routing:"} {
		if !strings.Contains(out.String(), col) {
			t.Fatalf("routed report missing %q:\n%s", col, out.String())
		}
	}
}

// TestOracleReportHasNoRoutedColumns: a run that never leaves oracle mode
// must render the exact pre-routing table, so existing report consumers
// see byte-identical output.
func TestOracleReportHasNoRoutedColumns(t *testing.T) {
	rep, err := Run(testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rep.Fprint(&out)
	for _, col := range []string{"hopP50", "maxLink", "routing:"} {
		if strings.Contains(out.String(), col) {
			t.Fatalf("oracle-only report grew routed column %q:\n%s", col, out.String())
		}
	}
}
