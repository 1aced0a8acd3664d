// Command scenario runs a declarative workload/fault/churn scenario on
// the dynamic P2P simulator and prints an SLO report: per-phase retrieval
// success rates, latency quantiles, churn and fault activity, traffic.
//
// Scenarios come from the builtin library or from a JSON spec file; runs
// are deterministic in (spec, seed), and -trace streams a per-round JSONL
// record for offline analysis.
//
// Examples:
//
//	scenario -list
//	scenario -name lossy -n 2048
//	scenario -name churn-burst -n 1024 -seed 7 -trace out.jsonl
//	scenario -spec my.json -trace out.jsonl
//	scenario -name steady -optrace ops.jsonl -metrics metrics.prom
//	scenario -name steady -dump          # print the spec JSON and exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"dynp2p/internal/scenario"
)

func main() {
	name := flag.String("name", "", "builtin scenario name (see -list)")
	specPath := flag.String("spec", "", "path to a JSON scenario spec (overrides -name)")
	n := flag.Int("n", 1024, "stable network size (builtin scenarios)")
	seed := flag.Uint64("seed", 1, "simulation seed (builtin scenarios)")
	tracePath := flag.String("trace", "", "write a per-round JSONL trace to this file")
	opTracePath := flag.String("optrace", "", "write a per-operation lifecycle JSONL trace to this file")
	metricsPath := flag.String("metrics", "", "write a final Prometheus-text metrics snapshot to this file")
	phaseProfPath := flag.String("phaseprof", "", "write a per-round phase-timing JSONL stream to this file")
	cacheCap := flag.Int("cachecap", -1, "override the spec's hot-key cache capacity (-1 keeps the spec value; 0 disables caching)")
	routing := flag.String("routing", "", "override the spec's routing mode: oracle or overlay (empty keeps the spec value)")
	list := flag.Bool("list", false, "list builtin scenarios and exit")
	dump := flag.Bool("dump", false, "print the resolved spec as JSON and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: scenario [flags]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nbuiltin scenarios (-name):\n")
		for _, d := range scenario.Describe() {
			fmt.Fprintf(out, "  %-14s %s\n", d[0], d[1])
		}
	}
	flag.Parse()

	if *list {
		for _, d := range scenario.Describe() {
			fmt.Printf("  %-14s %s\n", d[0], d[1])
		}
		return
	}

	var spec scenario.Spec
	var err error
	switch {
	case *specPath != "":
		spec, err = scenario.LoadSpec(*specPath)
	case *name != "":
		spec, err = scenario.Builtin(*name, *n, *seed)
	default:
		fmt.Fprintln(os.Stderr, "need -name or -spec (try -list)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// -cachecap sweeps cache capacity without editing the spec (see
	// EXPERIMENTS.md); like the routing mode, the cache is the run's, so
	// one run per capacity at the same seed is the comparison.
	if *cacheCap >= 0 {
		spec.Cache.Capacity = *cacheCap
	}

	// -routing A/Bs a spec between the id-addressed oracle and overlay
	// forwarding without editing it: the mode is the run's, so one run
	// per mode at the same seed is the comparison.
	if *routing != "" {
		spec.Routing.Mode = *routing
		if err := spec.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *dump {
		b, err := spec.MarshalIndent()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", b)
		return
	}

	var opt scenario.Options
	for _, out := range []struct {
		path string
		dst  *io.Writer
	}{
		{*tracePath, &opt.Trace},
		{*opTracePath, &opt.OpTrace},
		{*metricsPath, &opt.Metrics},
		{*phaseProfPath, &opt.PhaseProf},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		*out.dst = f
	}

	// Profiling brackets the run itself (not spec loading or reporting) so
	// perf work profiles real scenario workloads, not CLI overhead.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	rep, runErr := scenario.Run(spec, opt)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows live memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
	rep.Fprint(os.Stdout)
}
