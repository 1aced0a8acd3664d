// Command exptab regenerates the reproduction experiment tables — the
// paper's evaluation (Theorems 1-4, Lemmas, §4.4, §5 conjecture) measured
// on this implementation. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured verdicts.
//
// Usage:
//
//	exptab                 # all experiments at quick scale
//	exptab -scale full     # the EXPERIMENTS.md sweep (minutes)
//	exptab -only E08,E11   # a subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dynp2p/internal/expt"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E01,E08); empty = all")
	flag.Parse()

	scale := expt.Quick
	switch strings.ToLower(*scaleFlag) {
	case "quick":
	case "full":
		scale = expt.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	run := expt.Index
	if *only != "" {
		run = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			fn := expt.ByID(id)
			if fn == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
				os.Exit(2)
			}
			run = append(run, expt.Experiment{ID: id, Run: fn})
		}
	}
	for _, e := range run {
		start := time.Now()
		table := e.Run(scale)
		table.Fprint(os.Stdout)
		fmt.Printf("  (%s in %.1fs)\n\n", table.ID, time.Since(start).Seconds())
	}
}
