package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// small shrinks a workload to smoke-test size: n=256 and ~40 rounds of
// load, keeping its topology, routing, cache and coding settings.
func small(w workload) workload {
	w.n = 256
	w.keys = min(w.keys, 16)
	w.itemLen = min(w.itemLen, 512)
	first, last := w.phases[0], w.phases[len(w.phases)-1]
	first.rounds, last.rounds = 12, 28
	first.storeRate, last.retrieveRate = 2, max(last.retrieveRate, 3)
	w.phases = []phase{first, last}
	return w
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkSchema(t *testing.T, defs []metricDef, got map[string]value) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(got), len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not a valid name", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %q missing", d.Name)
		}
		if v.Unit != d.Unit {
			t.Errorf("metric %q unit %q, want %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs all four workloads small, untraced and traced (the traced
// run fails unless its digest equals the untraced leg's), and checks the
// shape of what they print.
func TestSmoke(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	// A small probe table: what the probe reads is of no interest here,
	// only that every run carries its probes along.
	pr := newProbe(1 << 20)
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{w: w, seed: 1, workers: pinnedWorkers, outDir: t.TempDir(), pr: pr}
			plain, err := runOnce(o, false)
			if err != nil {
				t.Fatal(err)
			}
			checkSchema(t, endToEnd, plain.Metrics)
			for _, d := range endToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, plain.Metrics[d.Name].Value)
				}
			}
			traced, err := runOnce(o, true)
			if err != nil {
				t.Fatal(err)
			}
			checkSchema(t, perLayer, traced.Metrics)
			if traced.Digest != plain.Digest {
				t.Errorf("digest %s traced, %s untraced", traced.Digest, plain.Digest)
			}
			o.workers = 1
			one, err := runOnce(o, false)
			if err != nil {
				t.Fatal(err)
			}
			if one.Digest != plain.Digest {
				t.Errorf("digest %s at one worker, %s at %d", one.Digest, plain.Digest, pinnedWorkers)
			}
			if _, err := os.Stat(o.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestManifest keeps BENCHMARK.json in step with the metric and workload
// tables it is generated from.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run . -manifest ../BENCHMARK.json`")
	}
	m := buildManifest()
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []int{4, 5, 5, 5, 5, 6, 6, 7}
	if got := quantile(s, 0.5); got != 5.25 {
		t.Errorf("median = %v, want 5.25", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	steady := func(m float64) row { return row{Median: m, Min: m * 0.99, Max: m * 1.01, Spread: 0.01} }
	for _, c := range []struct {
		a, b row
		want string
	}{
		{steady(100), steady(105), "ok"},
		{steady(100), steady(115), "worse"},
		{steady(100), steady(80), "ok"},
		{row{Median: 100, Min: 80, Max: 120, Spread: 0.2}, steady(115), "unresolved"},
		{row{Median: 100, Min: 90, Max: 120, Spread: 0.2}, steady(80), "ok"},
	} {
		if _, got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Median, c.b.Median, got, c.want)
		}
	}
}
