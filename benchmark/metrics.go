package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef describes one reported metric. The tables below are the
// single source of the names, units and bounds: the runs print from them,
// BENCHMARK.json is generated from them (-manifest) and the smoke test
// checks both.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = refSeconds

// endToEnd are the metrics a user of the system sees, per workload.
// Bounds are shares of the parent's median, at least three times the
// quartile spread measured over ten seeds on the reference box where 0.25
// allows (README, Bounds). The simulated statistics repeat exactly for one
// seed; their bounds cover the seed-to-seed spread, because the acceptance
// procedure varies the seed between runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},                  // dynp2p.New + warm-up rounds, calibrated; median of the run's 5-25 set-ups
	{Name: "cal_rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},      // simulated rounds per calibrated wall second over the timed region, each round taken from the faster of the run's two passes
	{Name: "cal_ok_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},      // (stores issued + retrievals succeeded) per calibrated wall second, same clock
	{Name: "cal_cpu_ms_per_round", Unit: "ms", Better: "lower", Bound: 0.25},    // process user+sys CPU per timed round, calibrated, of the pass that used less
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},            // process VmHWM less the probe table (the two passes run one after the other in one process)
	{Name: "allocs_per_round", Unit: "count", Better: "lower", Bound: 0.12},     // MemStats.Mallocs delta / timed rounds, first pass
	{Name: "alloc_kb_per_round", Unit: "KiB", Better: "lower", Bound: 0.25},     // MemStats.TotalAlloc delta / timed rounds, first pass
	{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: 0.15},        // succeeded / issued retrievals; timed out, lost to churn and unresolved all count as misses
	{Name: "retrieve_rounds_p50", Unit: "rounds", Better: "lower", Bound: 0.20}, // issue round to verified bytes, successes only, interpolated within the round
	{Name: "retrieve_rounds_p95", Unit: "rounds", Better: "lower", Bound: 0.25}, // issue round to verified bytes, successes only, interpolated within the round
	{Name: "items_alive_frac", Unit: "ratio", Better: "higher", Bound: 0.05},    // stored items with a live committee and enough copies at the end of the last phase
	{Name: "bits_per_node_round", Unit: "bits", Better: "lower", Bound: 0.22},   // modelled wire bits sent / (n x timed rounds): the paper's per-node communication cost
}

// perLayer are the metrics of single layers, from the traced run. All
// *_ns are per-round means over the timed region; counts are totals over
// it.
var perLayer = []metricDef{
	{Name: "simnet.round_ns", Unit: "ns", Better: "lower"},              // span around Engine.Run(1)
	{Name: "simnet.self_ns", Unit: "ns", Better: "lower"},               // round span minus soup, overlay, handler and OnJoin spans: the engine's own phases
	{Name: "simnet.churn_ns", Unit: "ns", Better: "lower"},              // engine churn phase less the OnJoin spans inside it
	{Name: "simnet.deliver_ns", Unit: "ns", Better: "lower"},            // engine deliver phase (inbox swap, delayed messages)
	{Name: "simnet.route_ns", Unit: "ns", Better: "lower"},              // engine route phase (sharded message exchange)
	{Name: "simnet.unattributed_ratio", Unit: "ratio", Better: "lower"}, // share of the round span no engine phase counter covers
	{Name: "simnet.msgs_sent", Unit: "count", Better: "lower"},
	{Name: "simnet.msgs_delivered", Unit: "count", Better: "lower"},
	{Name: "simnet.msgs_churn_dropped", Unit: "count", Better: "lower"},
	{Name: "simnet.delivered_ratio", Unit: "ratio", Better: "higher"},     // delivered / sent
	{Name: "simnet.parallel_efficiency", Unit: "ratio", Better: "higher"}, // handler busy / (handler wall x workers)
	{Name: "churn.replacements", Unit: "count", Better: "lower"},
	{Name: "expander.topology_ns", Unit: "ns", Better: "lower"}, // engine topology phase (oracle rewiring)
	{Name: "walks.step_ns", Unit: "ns", Better: "lower"},        // span around Soup.StepRound
	{Name: "walks.token_moves", Unit: "count", Better: "lower"},
	{Name: "walks.ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "walks.survival_ratio", Unit: "ratio", Better: "higher"}, // completed / (completed + died + overdue)
	{Name: "overlay.step_ns", Unit: "ns", Better: "lower"},          // span around Overlay.StepRound
	{Name: "overlay.repairs", Unit: "count", Better: "lower"},       // port pairs healed (splices + direct)
	{Name: "overlay.ns_per_repair", Unit: "ns", Better: "lower"},
	{Name: "overlay.lambda_end", Unit: "ratio", Better: "lower"}, // second-eigenvalue estimate of the final topology
	{Name: "route.step_ns", Unit: "ns", Better: "lower"},         // engine routed phase (serial walker advance)
	{Name: "route.sent", Unit: "count", Better: "lower"},
	{Name: "route.forwards", Unit: "count", Better: "lower"},
	{Name: "route.ns_per_forward", Unit: "ns", Better: "lower"},
	{Name: "route.parked", Unit: "count", Better: "lower"},
	{Name: "route.drop_ratio", Unit: "ratio", Better: "lower"}, // routed messages dropped / sent
	{Name: "route.hops_p50", Unit: "count", Better: "lower"},   // forwards per delivered routed message (log2 buckets)
	{Name: "route.hops_p99", Unit: "count", Better: "lower"},
	{Name: "route.max_link_load", Unit: "count", Better: "lower"},  // largest per-slot forward count in any round
	{Name: "protocol.handle_busy_ns", Unit: "ns", Better: "lower"}, // sum over slots of time inside Handler.HandleRound (CPU, all workers)
	{Name: "protocol.handle_wall_ns", Unit: "ns", Better: "lower"}, // first HandleRound start to last end
	{Name: "protocol.onjoin_ns", Unit: "ns", Better: "lower"},      // sum of Handler.OnJoin spans
	{Name: "protocol.request_ns", Unit: "ns", Better: "lower"},     // sum of RequestStore/RequestRetrieve spans
	{Name: "protocol.drain_ns", Unit: "ns", Better: "lower"},       // DrainResults span
	{Name: "protocol.committees_created", Unit: "count", Better: "lower"},
	{Name: "protocol.handovers", Unit: "count", Better: "lower"},
	{Name: "protocol.copies_per_item", Unit: "count", Better: "higher"}, // mean copies (pieces) held per stored item at the end
	{Name: "protocol.search_msgs_mean", Unit: "count", Better: "lower"}, // delivered protocol messages per search (op tracer)
	{Name: "protocol.cache_hit_ratio", Unit: "ratio", Better: "higher"}, // cache-served / succeeded retrievals
	{Name: "protocol.cache_serves", Unit: "count", Better: "higher"},
	{Name: "protocol.cache_seeds", Unit: "count", Better: "lower"},
	{Name: "ida.encode_mb_s", Unit: "MB/s", Better: "higher"}, // direct timed Coder.Encode at the workload's K, committee size and item length
	{Name: "ida.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ida.overhead", Unit: "ratio", Better: "lower"},                   // stored bytes / item bytes
	{Name: "telemetry.trace_overhead_ratio", Unit: "ratio", Better: "lower"}, // traced / untraced calibrated wall - 1
	{Name: "telemetry.soup_xcheck", Unit: "ratio", Better: "lower"},          // |wrapper - phase counter| / wrapper for the soup span
	{Name: "driver.issue_ns", Unit: "ns", Better: "lower"},                   // load generation and issue
	{Name: "box.probe_ms", Unit: "ms", Better: "lower"},                      // mean calibration probe over the timed region
	{Name: "raw.rounds_per_s", Unit: "1/s", Better: "higher"},                // uncalibrated
	{Name: "raw.cpu_ms_per_round", Unit: "ms", Better: "lower"},              // uncalibrated
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.num_gc", Unit: "count", Better: "lower"},
	{Name: "sim.retrievals_issued", Unit: "count", Better: "higher"},
	{Name: "sim.retrievals_ok", Unit: "count", Better: "higher"},
	{Name: "sim.retrieve_rounds_max", Unit: "rounds", Better: "lower"},
}

// value is one measured metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the result object the contract asks for on the last line of
// standard output.
type lastLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pack turns measured numbers into the printed form, insisting that every
// metric of defs is present exactly once.
func pack(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return out, nil
}

// printMetrics writes the metrics by name with units, in table order.
func printMetrics(w io.Writer, defs []metricDef, m map[string]value) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestWork `json:"workloads"`
	EndToEnd   []boundedDef   `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// boundedDef is a metricDef whose bound is always written.
type boundedDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundedDef(d))
	}
	return m
}

func writeManifest(path string) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median, quartiles and relative spread of a sample, as the acceptance
// procedure takes them (inclusive=false quantiles, like Python's
// statistics.quantiles(values, n=4)).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	s := (q3 - q1) / m
	if s < 0 {
		s = -s
	}
	return s
}
