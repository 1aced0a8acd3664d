package scenario

import (
	"flag"
	"testing"
)

// M4-style large-scale emulation knobs (cf. the Kademlia lab harness that
// makes ≥1000-node runs with configurable packet drop a one-flag affair):
//
//	go test ./internal/scenario -run LargeScale \
//	    -scenario.nodes 2000 -scenario.drop 0.15 -scenario.seed 3
var (
	largeNodes = flag.Int("scenario.nodes", 1000, "network size for the large-scale scenario test")
	largeDrop  = flag.Float64("scenario.drop", 0.10, "message drop probability for the large-scale scenario test")
	largeSeed  = flag.Uint64("scenario.seed", 7, "seed for the large-scale scenario test")
)

// TestLargeScaleLossyRetrieval runs the lossy builtin at >= 1000 nodes and
// asserts that storage and search stay serviceable under the configured
// message drop rate: completed retrievals succeed >= 90% of the time.
func TestLargeScaleLossyRetrieval(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale scenario test skipped in -short mode")
	}
	spec, err := Builtin("lossy", *largeNodes, *largeSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec.Fault.DropProb = *largeDrop

	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Total
	t.Logf("n=%d drop=%.2f seed=%d: issued=%d completed=%d ok=%d fail=%d lost=%d (success %.1f%%), complete p50=%d p95=%d",
		*largeNodes, *largeDrop, *largeSeed,
		tot.Issued, tot.Completed, tot.Succeeded, tot.Failed, tot.Lost,
		100*tot.SuccessRate(), tot.CompleteP50, tot.CompleteP95)

	if tot.Completed < 50 {
		t.Fatalf("too few completed retrievals to judge SLOs: %d", tot.Completed)
	}
	if rate := tot.SuccessRate(); rate < 0.90 {
		t.Fatalf("success rate %.3f below the 0.90 SLO at %.0f%% drop", rate, 100**largeDrop)
	}

	// The fault model must actually have been exercised at the requested
	// intensity (within 2 percentage points of the configured drop rate).
	eng := rep.Stats.Engine
	if eng.MsgsSent == 0 {
		t.Fatal("no traffic")
	}
	observed := float64(eng.MsgsFaultDropped) / float64(eng.MsgsSent)
	if diff := observed - *largeDrop; diff < -0.02 || diff > 0.02 {
		t.Fatalf("observed drop rate %.3f far from configured %.3f", observed, *largeDrop)
	}
}
