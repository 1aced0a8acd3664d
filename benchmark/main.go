// Command benchmark is the repository's benchmark: four fixed workloads
// driven through the public facade, host-time metrics calibrated against
// a memory probe, simulated statistics hashed into a digest, and a traced
// run that rebuilds the same stack with span wrappers for the per-layer
// ledger. See README.md.
//
//	go run -C benchmark .                      # full ledger, all workloads
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//	go run -C benchmark . -compare a.json b.json
//	go run -C benchmark . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process and print its result line")
		seed      = flag.Uint64("seed", 1, "workload and network seed")
		seconds   = flag.Float64("seconds", runSeconds, "nominal length of the timed region; scales the phase rounds")
		trace     = flag.Int("trace", 0, "1 = add the traced leg and print the per-layer metrics")
		workers   = flag.Int("workers", pinnedWorkers, "engine workers (the digest must not depend on it)")
		outDir    = flag.String("out", "out", "directory for trace files and the ledger")
		reps      = flag.Int("reps", 3, "ledger: untraced runs per workload")
		only      = flag.String("workloads", "", "ledger: comma-separated subset of workloads")
		compare   = flag.Bool("compare", false, "compare two ledgers: -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved ledgers of this build and compare them")
		manifest  = flag.String("manifest", "", "write BENCHMARK.json to this path and exit")
		baseline  = flag.String("baseline", "", "ledger: also write digests and medians to this path (baseline.json)")
	)
	flag.Parse()

	var err error
	switch {
	case *manifest != "":
		err = writeManifest(*manifest)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two ledger files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name != "":
		err = runChild(*name, *seed, *seconds, *trace != 0, *workers, *outDir)
	default:
		err = runLedger(ledgerOpts{
			seed: *seed, seconds: *seconds, reps: *reps, only: *only,
			outDir: *outDir, selfcheck: *selfcheck, baseline: *baseline,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChild is one run in this process: metrics by name, then the result
// object as the last line of standard output.
func runChild(name string, seed uint64, seconds float64, traced bool, workers int, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	res, err := runOnce(runOpts{w: w.sized(seconds), seed: seed, workers: workers, outDir: outDir, pr: newProbe(probeTableBytes)}, traced)
	if err != nil {
		return err
	}
	res.Seconds = seconds
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	t := res.Tally
	fmt.Printf("workload %s seed %d seconds %g workers %d traced %v\n", name, seed, seconds, workers, traced)
	fmt.Printf("  sim_digest %s\n", res.Digest)
	fmt.Printf("  stores %d (+%d issued again)  retrievals %d = ok %d + timeout %d + lost %d + unresolved %d (corrupt %d, cached %d, skipped %d)  latency samples %d\n",
		t.StoresIssued, t.StoreRetries, t.Issued, t.OK, t.Timeout, t.Lost, t.Unresolved, t.Corrupt, t.CachedOK, t.Skipped, res.Samples)
	fmt.Printf("  untraced leg: %d timed rounds in %.2f s raw, %d probes of mean %.1f ms (reference %.1f), %d set-ups of median %.3f s raw\n",
		res.Rounds, res.RawWallS, res.Probes, res.ProbeMS, probeRefMS, res.SetupReps, res.RawSetupS)
	printMetrics(os.Stdout, defs, res.Metrics)
	// The ledger reads this line back; it is not part of the contract's
	// result object.
	info, _ := json.Marshal(res)
	fmt.Printf("run-info %s\n", info)
	line, _ := json.Marshal(lastLine{
		Correct:   true, // a run that fails verification prints no result
		Attempted: t.StoresIssued + t.Issued,
		Failed:    t.Corrupt,
		Metrics:   res.Metrics,
	})
	fmt.Println(string(line))
	return nil
}
