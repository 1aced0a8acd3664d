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
		"drop too high":       `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"fault":{"drop":1.5}}]}`,
		"negative rate":       `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"load":{"storeRate":-1}}]}`,
		"odd degree":          `{"name":"x","n":64,"degree":7,"phases":[{"name":"p","rounds":5}]}`,
		"bad strategy":        `{"name":"x","n":64,"strategy":"chaotic","phases":[{"name":"p","rounds":5}]}`,
		"negative churn":      `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"churn":{"fixed":-2}}]}`,
		"negative delay":      `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"fault":{"delayProb":0.5,"maxDelay":-1}}]}`,
		"negative delta":      `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"churn":{"rate":0.5,"delta":-0.9}}]}`,
		"overwide burst":      `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"churn":{"burstPeriod":4,"burstWidth":10,"burstCount":8}}]}`,
		"bad route mode":      `{"name":"x","n":64,"routing":{"mode":"teleport"},"phases":[{"name":"p","rounds":5}]}`,
		"phase routing block": `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"routing":{"mode":"overlay"}}]}`,
		"negative budget":     `{"name":"x","n":64,"routing":{"mode":"overlay","walkBudget":-1},"phases":[{"name":"p","rounds":5}]}`,
		"negative capacity":   `{"name":"x","n":64,"routing":{"mode":"overlay","linkCapacity":-2},"phases":[{"name":"p","rounds":5}]}`,
		"malformed json":      `{"name":`,
	}
	for label, in := range cases {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", label, in)
		}
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

// testSpec builds a small three-phase spec with sharply distinguishable
// phase behaviour: quiet, then fixed churn, then lossy links.
func testSpec() Spec {
	return Spec{
		Name: "phases", N: 64, Seed: 5, Keys: 4, ItemLen: 32,
		Phases: []Phase{
			{Name: "quiet", Rounds: 12, Load: Workload{StoreRate: 1}},
			{Name: "churny", Rounds: 10, Churn: Churn{Fixed: 3}, Load: Workload{RetrieveRate: 0.5}},
			{Name: "lossy", Rounds: 10, Fault: Fault{Drop: 0.3}, Load: Workload{RetrieveRate: 0.5}},
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

	// The timeline must be warmup, quiet, churny, lossy, drain in order
	// with the spec's durations.
	spec := rep.Spec
	wantPhases := []struct {
		name   string
		rounds int
	}{
		{"warmup", spec.WarmupRounds()},
		{"quiet", 12},
		{"churny", 10},
		{"lossy", 10},
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
	// 0's law = quiet), faults only from "lossy" on (the drain keeps the
	// last phase's fault model).
	for _, r := range recs {
		switch r.Phase {
		case "churny":
			if r.Churned != 3 {
				t.Fatalf("round %d (churny): churned %d, want 3", r.Round, r.Churned)
			}
		case "warmup", "quiet":
			if r.Churned != 0 {
				t.Fatalf("round %d (%s): churned %d, want 0", r.Round, r.Phase, r.Churned)
			}
			if r.FaultDrop != 0 {
				t.Fatalf("round %d (%s): faultDrop %d before lossy phase", r.Round, r.Phase, r.FaultDrop)
			}
		case "drain":
			if r.Churned != 0 {
				t.Fatalf("round %d (drain): churned %d, want 0", r.Round, r.Churned)
			}
		}
	}
	var lossyDrops int64
	for _, r := range recs {
		if r.Phase == "lossy" || r.Phase == "drain" {
			lossyDrops += r.FaultDrop
		}
	}
	if lossyDrops == 0 {
		t.Fatal("lossy phase dropped no messages at drop=0.3")
	}
	if rep.Stats.Engine.MsgsFaultDropped != lossyDrops {
		t.Fatalf("fault drops outside lossy+drain: engine %d, traced %d",
			rep.Stats.Engine.MsgsFaultDropped, lossyDrops)
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
// degree override, and validation of edge-mode names at both spec and
// phase level.
func TestTopologyBlock(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "topo", "n": 64, "seed": 1,
		"topology": {"edges": "self-healing", "degree": 6, "spectralEvery": 2},
		"phases": [
			{"name": "a", "rounds": 5},
			{"name": "b", "rounds": 5, "edges": "rerandomize"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Degree != 6 {
		t.Fatalf("topology degree override not applied: degree=%d", spec.Degree)
	}
	if m, err := spec.edgeMode(); err != nil || m.String() != "self-healing" {
		t.Fatalf("edgeMode = %v, %v", m, err)
	}

	bad := map[string]string{
		"bad spec mode":  `{"name":"x","n":64,"topology":{"edges":"mesh"},"phases":[{"name":"p","rounds":5}]}`,
		"bad phase mode": `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"edges":"mesh"}]}`,
		"periodic":       `{"name":"x","n":64,"topology":{"edges":"periodic"},"phases":[{"name":"p","rounds":5}]}`,
		"periodic phase": `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"edges":"periodic"}]}`,
		"ring":           `{"name":"x","n":64,"topology":{"edges":"ring+random"},"phases":[{"name":"p","rounds":5}]}`,
		"ring phase":     `{"name":"x","n":64,"phases":[{"name":"p","rounds":5,"edges":"ring+random"}]}`,
		"neg spectral":   `{"name":"x","n":64,"topology":{"spectralEvery":-1},"phases":[{"name":"p","rounds":5}]}`,
	}
	for what, in := range bad {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Fatalf("%s: not rejected", what)
		}
	}
}

// TestTopologySwitchAndLambdaTrace runs a two-phase spec that switches
// from the oracle to self-healing mid-run with per-round spectral
// telemetry: repairs must happen only after the switch, the trace must
// carry lambda values, and the phase reports must carry the per-phase
// spectral maxima.
func TestTopologySwitchAndLambdaTrace(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "switch", "n": 128, "seed": 3,
		"topology": {"spectralEvery": 1},
		"phases": [
			{"name": "oracle", "rounds": 8, "churn": {"fixed": 4},
			 "load": {"storeRate": 0.5, "retrieveRate": 0.5}},
			{"name": "heal", "rounds": 8, "edges": "self-healing", "churn": {"fixed": 4},
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
	var oracle, heal *PhaseReport
	for i := range rep.Phases {
		switch rep.Phases[i].Name {
		case "oracle":
			oracle = &rep.Phases[i]
		case "heal":
			heal = &rep.Phases[i]
		}
	}
	if oracle == nil || heal == nil {
		t.Fatal("missing phase reports")
	}
	if oracle.Repairs != 0 {
		t.Fatalf("repairs before the self-healing switch: %d", oracle.Repairs)
	}
	if heal.Repairs == 0 {
		t.Fatal("no repairs after the self-healing switch")
	}
	if oracle.LambdaMax <= 0 || oracle.LambdaMax >= 1 || heal.LambdaMax <= 0 || heal.LambdaMax >= 1 {
		t.Fatalf("implausible per-phase λ maxima: oracle=%v heal=%v", oracle.LambdaMax, heal.LambdaMax)
	}
	// Every traced round carries a lambda (spectralEvery=1); repairs
	// appear only in heal-phase records.
	lambdas, healRepairs := 0, int64(0)
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var rec TraceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.Lambda != nil {
			lambdas++
		}
		if rec.Phase == "oracle" && rec.Repairs != 0 {
			t.Fatalf("trace shows repairs in oracle phase: %+v", rec)
		}
		if rec.Phase == "heal" || rec.Phase == "drain" {
			healRepairs += rec.Repairs
		}
	}
	if lambdas != rep.Rounds {
		t.Fatalf("lambda on %d of %d traced rounds (want all: spectralEvery=1)", lambdas, rep.Rounds)
	}
	if healRepairs == 0 {
		t.Fatal("trace shows no repairs in the self-healing window")
	}
	var out bytes.Buffer
	rep.Fprint(&out)
	if !strings.Contains(out.String(), "λ last") || !strings.Contains(out.String(), "λmax by phase") {
		t.Fatalf("report missing topology lines:\n%s", out.String())
	}
}

// TestPhaseCacheOverridePersists pins the override contract for the
// per-phase cache block: like Edges, a phase-level Cache reconfiguration
// stays in force for every subsequent phase until another phase overrides
// it again. The witness is a phase AFTER the enabling one, with no cache
// field of its own, still producing cache hits.
func TestPhaseCacheOverridePersists(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "cache-persist", "n": 64, "seed": 7, "keys": 4, "zipfS": 3.0,
		"phases": [
			{"name": "seed", "rounds": 12, "load": {"storeRate": 1}},
			{"name": "on", "rounds": 20, "cache": {"capacity": 4, "seedRate": 1},
			 "load": {"retrieveRate": 2}},
			{"name": "after", "rounds": 20, "load": {"retrieveRate": 2}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PhaseReport{}
	for _, p := range rep.Phases {
		byName[p.Name] = p
	}
	if h := byName["seed"].SLO.CacheHits; h != 0 {
		t.Fatalf("cache hits before the cache override: %d", h)
	}
	if h := byName["on"].SLO.CacheHits; h == 0 {
		t.Fatal("no cache hits in the phase that enabled caching")
	}
	if h := byName["after"].SLO.CacheHits; h == 0 {
		t.Fatal("cache override did not persist: no hits in the following phase")
	}
}

// TestRoutedScenario runs a small spec in overlay mode end to end: the
// report must mark phases as routed, carry routed traffic in Stats, show
// zero id-addressed teleports (every engine delivery went through the
// router), and render the routed table columns.
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
		if !p.Routed {
			t.Fatalf("phase %s not marked routed", p.Name)
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
