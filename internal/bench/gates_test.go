package bench

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// The budgets. Each bounds a ratio or a difference taken inside one
// process — never an absolute time — and each is a constant beside the
// code it bounds: there is no override.
const (
	// gateRounds is how many rounds a gate averages over (the
	// -benchtime 20x the budgets were set at).
	gateRounds = 20

	// steadyAllocs bounds mean allocations per round on the steady-state
	// engine paths — RouteOnly, SoupOnly, OverlayRepair and RoutedRound's
	// routed mode — and on FullRound, whose protocol state is reset in
	// place on churn and swept without a sort. Not literally zero: with
	// tens of thousands of inboxes, buckets and per-shard exchange
	// buffers, random per-round size maxima still force an occasional
	// slice growth (a record-maximum process whose rate decays like
	// 1/round). It sits three orders of magnitude below the per-slot
	// regime it guards against (~8 allocs per slot per round, ~32k/round
	// at n=4096, before the inbox arena).
	steadyAllocs = 256

	// telemetryAllocs is how many more allocations per round the full
	// observability stack may cost over the plain full round: none.
	telemetryAllocs = 0

	// workerAllocs is how many more allocations per round SoupOnly may
	// cost on two workers than on one: the lanes are prebuilt, a second
	// one costs a goroutine start.
	workerAllocs = 2

	// workerSpeedup bounds SoupOnly's Workers 2 round time as a fraction
	// of Workers 1 at ratioSize; telemetryTax bounds FullRoundTelemetry's
	// round time as a multiple of FullRound's there.
	workerSpeedup = 0.8
	telemetryTax  = 1.05

	// noBudget marks a benchmark row that is recorded, not gated.
	noBudget = math.MaxInt
)

// allocs runs round the given number of times and returns the heap
// allocations made.
func allocs(round func(), rounds int) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

// allocsPerRound is the mean of allocs per call, truncated like testing's
// allocs/op.
func allocsPerRound(round func(), rounds int) int { return allocs(round, rounds) / rounds }

func checkBudget(name string, got, budget int) error {
	if got > budget {
		return fmt.Errorf("%s allocates %d/round, budget is %d", name, got, budget)
	}
	return nil
}

// steadyGate fails when round averages more than steadyAllocs
// allocations over gateRounds rounds.
func steadyGate(name string, round func()) error {
	return checkBudget(name, allocsPerRound(round, gateRounds), steadyAllocs)
}

// deltaGate fails when other averages more than budget allocations per
// round above base, each over gateRounds rounds. The difference of the
// totals is what is truncated to whole allocations per round: truncating
// each side first turns a couple of stray runtime allocations into a
// failure whenever base sits just under a multiple of gateRounds.
func deltaGate(name string, base, other func(), budget int) error {
	b, o := allocs(base, gateRounds), allocs(other, gateRounds)
	if (o-b)/gateRounds > budget {
		return fmt.Errorf("%s allocates %d against %d over %d rounds, budget is +%d/round", name, o, b, gateRounds, budget)
	}
	return nil
}

// ratioGate times other against base, reports the ratio under unit, and
// fails the benchmark when it exceeds limit. It takes three passes of
// gateRounds rounds per side and keeps each side's fastest; inside a
// pass the two sides alternate round by round, because this box's speed
// shifts by up to 1.5× for seconds at a time and only rounds that ran
// next to each other are comparable. Because it is a timing, it is
// reachable from benchmarks only, never from `go test ./...`.
func ratioGate(b *testing.B, unit string, base, other func(), limit float64) {
	minBase, minOther := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		var tBase, tOther time.Duration
		for i := 0; i < gateRounds; i++ {
			t0 := time.Now()
			base()
			t1 := time.Now()
			other()
			tBase, tOther = tBase+t1.Sub(t0), tOther+time.Since(t1)
		}
		minBase, minOther = min(minBase, tBase), min(minOther, tOther)
	}
	ratio := float64(minOther) / float64(minBase)
	b.ReportMetric(ratio, unit)
	if ratio > limit {
		b.Fatalf("%s takes %.2fx the base round time (%v against %v per %d rounds), budget is %.2fx",
			b.Name(), ratio, minOther, minBase, gateRounds, limit)
	}
}

// TestSteadyStateAllocs is the exact half of the steady-state contract:
// every path that must not allocate per slot, at refSize, on the
// benchmarks' own bodies.
func TestSteadyStateAllocs(t *testing.T) {
	soup, _ := soupOnly(refSize, 0)
	repair, _ := overlayRepair(refSize)
	full := fullRound(refSize, false)
	for _, c := range []struct {
		name  string
		round func()
	}{
		{"RouteOnly", routeOnly(refSize)},
		{"SoupOnly", soup},
		{"OverlayRepair", repair},
		{"RoutedRound/mode=routed", routedRound(refSize, true)},
		{"FullRound", func() { full.Run(1) }},
	} {
		if err := steadyGate(c.name, c.round); err != nil {
			t.Error(err)
		}
	}
}

// TestTelemetryAddsNoAllocs prices the observability stack against the
// plain full round: full tracing plus the phase profiler must stay
// steady-state allocation-free.
func TestTelemetryAddsNoAllocs(t *testing.T) {
	plain, observed := fullRound(refSize, false), fullRound(refSize, true)
	err := deltaGate("FullRoundTelemetry", func() { plain.Run(1) }, func() { observed.Run(1) }, telemetryAllocs)
	if err != nil {
		t.Error(err)
	}
}

// TestSoupSecondWorkerAllocs bounds what a second soup worker may
// allocate per round.
func TestSoupSecondWorkerAllocs(t *testing.T) {
	one, _ := soupOnly(refSize, 1)
	two, _ := soupOnly(refSize, 2)
	if err := deltaGate("SoupOnly/workers=2", one, two, workerAllocs); err != nil {
		t.Error(err)
	}
}

// TestGatesBite feeds the gates bodies that allocate a known amount: each
// must pass at its budget and fail one allocation past it.
func TestGatesBite(t *testing.T) {
	var sink []*int
	allocating := func(k int) func() {
		return func() {
			sink = sink[:0]
			for i := 0; i < k; i++ {
				sink = append(sink, new(int))
			}
		}
	}
	allocating(steadyAllocs + 1)() // grow sink once so only the new(int)s count
	for _, c := range []struct {
		name string
		gate func() error
		fail bool
	}{
		{"steady at budget", func() error { return steadyGate("x", allocating(steadyAllocs)) }, false},
		{"steady past budget", func() error { return steadyGate("x", allocating(steadyAllocs+1)) }, true},
		{"telemetry delta 0", func() error { return deltaGate("x", allocating(7), allocating(7), telemetryAllocs) }, false},
		{"telemetry delta +1", func() error { return deltaGate("x", allocating(7), allocating(8), telemetryAllocs) }, true},
		{"worker delta +2", func() error { return deltaGate("x", allocating(3), allocating(5), workerAllocs) }, false},
		{"worker delta +3", func() error { return deltaGate("x", allocating(3), allocating(6), workerAllocs) }, true},
	} {
		if err := c.gate(); (err != nil) != c.fail {
			t.Errorf("%s: gate returned %v, want failure=%v", c.name, err, c.fail)
		}
	}
}
