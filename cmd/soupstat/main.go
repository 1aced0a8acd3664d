// Command soupstat is a diagnostic for the random-walk soup (paper §3):
// it runs the soup alone on the dynamic expander under churn and reports
// mixing quality (total-variation distance of walk endpoints from
// uniform), survival, and per-node sample receipt statistics — the
// measurable content of the Soup Theorem.
//
// Example:
//
//	soupstat -n 4096 -churn 2 -delta 0.5 -rounds 200
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"syscall"

	"dynp2p/internal/churn"
	"dynp2p/internal/overlay"
	"dynp2p/internal/simnet"
	"dynp2p/internal/stats"
	"dynp2p/internal/walks"
)

func main() {
	n := flag.Int("n", 2048, "network size")
	c := flag.Float64("churn", 1, "churn constant C (0 = none)")
	delta := flag.Float64("delta", 0.5, "churn exponent delta")
	rounds := flag.Int("rounds", 0, "measurement rounds (0 = 3x walk length)")
	seed := flag.Uint64("seed", 1, "seed")
	edges := flag.String("edges", "rerandomize", "topology: rerandomize|static|self-healing (self-healing attaches the overlay repair hook)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	var law churn.Law = churn.ZeroLaw{}
	if *c > 0 {
		law = churn.PaperLaw(*c, *delta)
	}
	mode, err := simnet.ParseEdgeMode(*edges)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	e := simnet.New(simnet.Config{
		N: *n, Degree: 8, EdgeMode: mode,
		AdversarySeed: *seed, ProtocolSeed: *seed + 1,
		Strategy: churn.Uniform, Law: law,
	})
	p := walks.DefaultParams(*n)
	s := walks.NewSoup(e, p, 0)
	e.AddHook(s)
	var ov *overlay.Overlay
	if mode == simnet.EdgesSelfHealing {
		ov = overlay.New(e, s, overlay.Config{})
		e.AddHook(ov)
	}

	fmt.Printf("n=%d churn=%d/round walk-len=%d walks/node/round=%d edges=%v shards=%d\n",
		*n, law.PerRound(*n, 0), p.WalkLength, p.WalksPerRound, mode, e.Grid().Count())

	// Profiling brackets the simulated rounds, not setup or reporting.
	stopCPU := startCPUProfile(*cpuProfile)

	warm := 2 * p.WalkLength
	e.Run(simnet.NopHandler{}, warm)

	window := *rounds
	if window <= 0 {
		window = 3 * p.WalkLength
	}
	counts := make([]int, *n)
	// The receipt distribution is sampled on a fixed slot stride above
	// n=2^16 so the measurement arrays stay bounded (~100 MB of float64s
	// over a 200-round 2^20 run would otherwise dominate the tool's own
	// footprint and pollute the peak-RSS report).
	recStride := max(1, *n>>16)
	var receipts []float64
	for r := 0; r < window; r++ {
		e.RunRound(simnet.NopHandler{})
		for slot := 0; slot < *n; slot++ {
			got := len(s.Samples(slot))
			counts[slot] += got
			if slot%recStride == 0 {
				receipts = append(receipts, float64(got))
			}
		}
		if (r+1)%50 == 0 {
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
				fmt.Printf("round %d/%d: peak RSS %.2f GB\n",
					r+1, window, float64(ru.Maxrss)/(1<<20))
			}
		}
	}
	stopCPU()
	writeHeapProfile(*memProfile)

	m := s.Metrics()
	fmt.Printf("\nwalks: generated=%d completed=%d died=%d (survival %.1f%%)\n",
		m.Generated, m.Completed, m.Died,
		100*float64(m.Completed)/float64(m.Completed+m.Died))
	fmt.Printf("endpoint TV distance from uniform: %.4f over %d arrivals\n",
		stats.TVDistanceFromUniform(counts), total(counts))
	sm := stats.Summarize(receipts)
	fmt.Printf("per-node receipts/round: mean=%.2f p05=%.0f median=%.0f p95=%.0f\n",
		sm.Mean, sm.P05, sm.Median, sm.P95)
	if ov != nil {
		om := ov.Metrics()
		fmt.Printf("overlay: severed=%d splices=%d direct-pairs=%d stale-samples=%d\n",
			om.PortsSevered, om.Splices, om.DirectPairs, om.StaleSamples)
		if err := e.Graph().CheckRegular(); err != nil {
			fmt.Fprintf(os.Stderr, "topology check failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("topology: %d-regular invariant holds after %d rounds\n",
			e.Graph().Degree(), e.Round())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Linux reports ru_maxrss in KiB.
		fmt.Printf("peak RSS: %.2f GB (%d KB)\n", float64(ru.Maxrss)/(1<<20), ru.Maxrss)
	}
}

func total(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// startCPUProfile begins CPU profiling to path ("" = no-op) and returns
// the stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeHeapProfile writes a post-GC heap profile to path ("" = no-op).
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
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
