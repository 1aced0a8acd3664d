package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// ledgerOpts configures the full ledger (the default mode).
type ledgerOpts struct {
	seed      uint64
	seconds   float64
	reps      int
	only      string
	outDir    string
	selfcheck bool
	baseline  string
}

// row summarises one metric of one workload over the ledger's runs.
type row struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Values []float64 `json:"values"`
	Unit   string    `json:"unit"`
}

// ledger is what -compare reads: every run made, and per workload the
// digest, the end-to-end summary and the traced run's per-layer metrics.
type ledger struct {
	Seed     uint64                      `json:"seed"`
	Seconds  float64                     `json:"seconds"`
	Digests  map[string]string           `json:"sim_digest"`
	EndToEnd map[string]map[string]row   `json:"end_to_end"`
	PerLayer map[string]map[string]value `json:"per_layer"`
	Runs     []*result                   `json:"runs"`
}

// shortSeconds sizes the Workers:1 determinism leg.
const shortSeconds = 2

// spawn runs one workload in a fresh child process of this binary, so peak
// RSS and GC state are per run, and waits for it.
func spawn(w string, seed uint64, seconds float64, traced bool, workers int, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", tr, "-workers", fmt.Sprint(workers), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run %s (seed %d, traced %v): %w", w, seed, traced, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "run-info "); ok {
			res := &result{}
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, fmt.Errorf("run %s: result: %w", w, err)
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("run %s: no result in output", w)
}

func selectWorkloads(only string) ([]workload, error) {
	if only == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(only, ",") {
		w, err := findWorkload(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// runLedger makes every run of the ledger, checks that the simulated
// statistics agree across them, prints the ledger and writes it out.
func runLedger(o ledgerOpts) error {
	ws, err := selectWorkloads(o.only)
	if err != nil {
		return err
	}
	if o.reps < 2 {
		return fmt.Errorf("-reps must be at least 2")
	}
	sets := []*ledger{newLedger(o)}
	if o.selfcheck {
		sets = append(sets, newLedger(o))
	}

	// Untraced runs, interleaved across workloads (and across the two
	// sets of a selfcheck) so that drift of the box falls on all alike.
	for rep := 0; rep < o.reps; rep++ {
		for _, w := range ws {
			for si, lg := range sets {
				fmt.Fprintf(os.Stderr, "run %d/%d %s%s\n", rep+1, o.reps, w.name, []string{"", " (set B)"}[si])
				res, err := spawn(w.name, o.seed, o.seconds, false, pinnedWorkers, o.outDir)
				if err != nil {
					return err
				}
				if err := lg.add(res); err != nil {
					return err
				}
			}
		}
	}
	lg := sets[0]
	for _, w := range ws {
		// The traced run: its own check is traced digest = untraced digest.
		fmt.Fprintf(os.Stderr, "traced run %s\n", w.name)
		res, err := spawn(w.name, o.seed, o.seconds, true, pinnedWorkers, o.outDir)
		if err != nil {
			return err
		}
		if err := lg.add(res); err != nil {
			return err
		}
		// A short leg at one worker against the same leg at two.
		var short [2]*result
		for i, workers := range []int{1, pinnedWorkers} {
			if short[i], err = spawn(w.name, o.seed, shortSeconds, false, workers, o.outDir); err != nil {
				return err
			}
		}
		if short[0].Digest != short[1].Digest {
			return fmt.Errorf("%s: sim_digest depends on the worker count: %s at 1, %s at %d",
				w.name, short[0].Digest, short[1].Digest, pinnedWorkers)
		}
	}

	for _, s := range sets {
		s.summarise()
	}
	lg.print(os.Stdout, ws)
	if err := lg.write(filepath.Join(o.outDir, "ledger.json")); err != nil {
		return err
	}
	if committed, err := readBaseline("baseline.json"); err == nil && committed.Seed == o.seed && committed.Seconds == o.seconds {
		for _, w := range ws {
			state := "matches"
			if committed.Digests[w.name] != lg.Digests[w.name] {
				state = "DIFFERS from"
			}
			fmt.Printf("%s: sim_digest %s %s the committed baseline\n", w.name, lg.Digests[w.name], state)
		}
	}
	if o.baseline != "" {
		if err := lg.writeBaseline(o.baseline); err != nil {
			return err
		}
	}
	if o.selfcheck {
		if err := sets[1].write(filepath.Join(o.outDir, "ledger-b.json")); err != nil {
			return err
		}
		return compareLedgers(os.Stdout, lg, sets[1], true)
	}
	return nil
}

func newLedger(o ledgerOpts) *ledger {
	return &ledger{
		Seed: o.seed, Seconds: o.seconds,
		Digests:  map[string]string{},
		EndToEnd: map[string]map[string]row{},
		PerLayer: map[string]map[string]value{},
	}
}

// add records a run; a digest that differs from an earlier run of the same
// workload fails the ledger.
func (lg *ledger) add(res *result) error {
	if prev, ok := lg.Digests[res.Workload]; ok && prev != res.Digest {
		return fmt.Errorf("%s: sim_digest differs between runs of one seed: %s then %s (traced %v)",
			res.Workload, prev, res.Digest, res.Traced)
	}
	lg.Digests[res.Workload] = res.Digest
	lg.Runs = append(lg.Runs, res)
	return nil
}

func (lg *ledger) summarise() {
	vals := map[string]map[string][]float64{}
	for _, r := range lg.Runs {
		if r.Traced {
			lg.PerLayer[r.Workload] = r.Metrics
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
		}
	}
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for w, byName := range vals {
		lg.EndToEnd[w] = map[string]row{}
		for name, v := range byName {
			r := row{Median: median(v), Min: v[0], Max: v[0], Spread: spread(v), Values: v, Unit: units[name]}
			for _, x := range v {
				r.Min, r.Max = min(r.Min, x), max(r.Max, x)
			}
			lg.EndToEnd[w][name] = r
		}
	}
}

func (lg *ledger) print(out io.Writer, ws []workload) {
	for _, w := range ws {
		var samples, runs int
		var t tally
		for _, r := range lg.Runs {
			if r.Workload == w.name && !r.Traced {
				samples, t = r.Samples, r.Tally
				runs++
			}
		}
		fmt.Fprintf(out, "\n%s  (seed %d, %g s, %d untraced runs)  sim_digest %s\n", w.name, lg.Seed, lg.Seconds, runs, lg.Digests[w.name])
		fmt.Fprintf(out, "  %s\n", w.why)
		fmt.Fprintf(out, "  stores %d  retrievals %d = ok %d + timeout %d + lost %d + unresolved %d  (latency samples %d)\n",
			t.StoresIssued, t.Issued, t.OK, t.Timeout, t.Lost, t.Unresolved, samples)
		fmt.Fprintf(out, "  %-32s %14s %14s %8s  %s\n", "end to end", "median", "min", "spread", "unit")
		for _, d := range endToEnd {
			r := lg.EndToEnd[w.name][d.Name]
			fmt.Fprintf(out, "  %-32s %14.6g %14.6g %7.2f%%  %s\n", d.Name, r.Median, r.Min, 100*r.Spread, d.Unit)
		}
		if pl, ok := lg.PerLayer[w.name]; ok {
			fmt.Fprintf(out, "  %-32s %14s\n", "per layer (traced run)", "value")
			printMetrics(out, perLayer, pl)
		}
	}
}

func (lg *ledger) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(lg, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lg := &ledger{}
	if err := json.Unmarshal(b, lg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lg, nil
}

// baselineFile is the committed record of the defining run: the seed's
// digests and the medians measured on the reference box.
type baselineFile struct {
	Seed     uint64                        `json:"seed"`
	Seconds  float64                       `json:"seconds"`
	Digests  map[string]string             `json:"sim_digest"`
	EndToEnd map[string]map[string]float64 `json:"end_to_end_median"`
	PerLayer map[string]map[string]float64 `json:"per_layer"`
}

func (lg *ledger) writeBaseline(path string) error {
	bf := baselineFile{Seed: lg.Seed, Seconds: lg.Seconds, Digests: lg.Digests,
		EndToEnd: map[string]map[string]float64{}, PerLayer: map[string]map[string]float64{}}
	for w, rows := range lg.EndToEnd {
		bf.EndToEnd[w] = map[string]float64{}
		for name, r := range rows {
			bf.EndToEnd[w][name] = r.Median
		}
	}
	for w, vals := range lg.PerLayer {
		bf.PerLayer[w] = map[string]float64{}
		for name, v := range vals {
			bf.PerLayer[w][name] = v.Value
		}
	}
	b, err := json.MarshalIndent(bf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readBaseline(path string) (*baselineFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bf := &baselineFile{}
	return bf, json.Unmarshal(b, bf)
}

func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readLedger(pathA)
	if err != nil {
		return err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return err
	}
	return compareLedgers(out, a, b, false)
}

// verdict of one workload x metric pairing of ledgers a (parent) and b.
// Where either side's spread is wider than the bound the pairing is
// unresolved, not unchanged, unless every run of b reads better than
// every run of a.
func verdict(d metricDef, a, b row) (worseBy float64, v string) {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if a.Median != 0 {
		worseBy = sign * (b.Median - a.Median) / a.Median
	}
	if a.Spread > d.Bound || b.Spread > d.Bound {
		allBetter := sign*(b.Max-a.Min) < 0 && sign*(b.Min-a.Max) < 0
		if !allBetter {
			return worseBy, "unresolved"
		}
		return worseBy, "ok"
	}
	if worseBy > d.Bound {
		return worseBy, "worse"
	}
	return worseBy, "ok"
}

// compareLedgers prints, per workload x end-to-end metric, both medians,
// the relative difference, the bound and the verdict. It fails on any
// "worse", and with sameBuild also on a digest that differs.
func compareLedgers(out io.Writer, a, b *ledger, sameBuild bool) error {
	worse, differs := 0, 0
	for _, w := range workloads {
		ra, rb := a.EndToEnd[w.name], b.EndToEnd[w.name]
		if ra == nil || rb == nil {
			continue
		}
		digest := "same"
		if a.Seed != b.Seed || a.Seconds != b.Seconds {
			digest = "not comparable (seed or seconds differ)"
		} else if a.Digests[w.name] != b.Digests[w.name] {
			digest = fmt.Sprintf("DIFFERS (%s vs %s)", a.Digests[w.name], b.Digests[w.name])
			differs++
		}
		fmt.Fprintf(out, "\n%s  sim_digest %s\n", w.name, digest)
		fmt.Fprintf(out, "  %-24s %14s %14s %9s %7s  %s\n", "metric", "a", "b", "worse by", "bound", "verdict")
		for _, d := range endToEnd {
			wb, v := verdict(d, ra[d.Name], rb[d.Name])
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "  %-24s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				d.Name, ra[d.Name].Median, rb[d.Name].Median, 100*wb, 100*d.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload x metric pairings are worse than the bound allows", worse)
	}
	if sameBuild && differs > 0 {
		return fmt.Errorf("sim_digest differs between two sets of one build")
	}
	return nil
}
