package bench

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"dynp2p"
)

// The budgets. Each bounds a ratio or a difference taken inside one
// process — never an absolute time — and each is a constant beside the
// code it bounds: there is no override.
const (
	// gateRounds is how many rounds a gate averages over (the
	// -benchtime 20x the budgets were set at).
	gateRounds = 20

	// steadyAllocs bounds mean allocations per round on the steady-state
	// engine paths — RouteOnly, SoupOnly, OverlayRepair, RoutedRound's
	// routed mode and RouteWalk — and on FullRound, whose protocol state
	// is reset in place on churn and swept without a sort. Not literally
	// zero: with tens of thousands of inboxes, buckets and per-shard
	// exchange buffers, random per-round size maxima still force an
	// occasional slice growth (a record-maximum process whose rate decays
	// like 1/round). It sits three orders of magnitude below the per-slot
	// regime it guards against (~8 allocs per slot per round, ~32k/round
	// at n=4096, before the inbox arena).
	steadyAllocs = 256

	// telemetryAllocs is how many more allocations per round the full
	// observability stack may cost over the plain full round: none.
	telemetryAllocs = 0

	// workerAllocs is how many more allocations per round SoupOnly may
	// cost on two workers than on one: the engine's crew is built once,
	// so a second worker starts no goroutine per round.
	workerAllocs = 2

	// workerSpeedup bounds SoupOnly's Workers 2 round time as a fraction
	// of Workers 1 at ratioSize; telemetryTax bounds FullRoundTelemetry's
	// round time as a multiple of FullRound's there.
	workerSpeedup = 0.8
	telemetryTax  = 1.05

	// setupAllocs is how many more allocations building a network and
	// running its first round may make at n = 16,384 than at n = 1,024:
	// every per-slot table is one array sized at construction, so setup
	// allocations are flat in n. It sits three orders of magnitude below
	// the 2n a per-slot allocation on the join path costs.
	setupAllocs = 16

	// retrieveAllocs bounds mean allocations per round over the first
	// gateRounds rounds of retrieveHot at refSize, cache off and on. Unlike
	// the steady-state paths this one allocates by design: a search or a
	// handover draws a fresh roster, and the first rounds grow each
	// shard's slab and message buffers. It reads 111 (off) and 129 (on)
	// on amd64 at GOMAXPROCS 1, 2 and 4, and 110 and 128 under
	// GOARCH=386, since the inbox arenas grow by blocks (112 and 128
	// while they doubled) and new slab arrays are cut from blocks (446 and
	// 441 when each was its own allocation; 983 and 940 before the
	// protocol's arrays grew from the slab). The budget was set at the
	// largest reading plus 3 (2 %) when that was 128, and is kept: a roster
	// clone per invite reads 135 (off) and 151 (on) and fails it.
	retrieveAllocs = 131

	// retrieveErasureAllocs is retrieveAllocs for the same workload with
	// the items dispersed at IDA K = 4 and the cache off, so a leader
	// candidate's gathered pieces, its count table, a searcher's fetched
	// pieces and the coder's own buffers are gated too. It reads 127 on
	// amd64 at GOMAXPROCS 1, 2 and 4 and 125 under GOARCH=386 (126 there
	// while the inbox arenas doubled; 476 before slab arrays were cut from
	// blocks, 1,046 before the slab); the budget is the reading plus 3, and
	// a roster clone per invite reads 151.
	retrieveErasureAllocs = 130

	// retrieveHeldBytes bounds what the engine's send buffers and inbox
	// arenas hold (dynp2p_engine_mem_out_bytes plus
	// dynp2p_engine_mem_inbox_arena_bytes) after retrieveHot's gate rounds
	// at refSize, cache off and on and at IDA K = 4: the largest store that
	// grows with traffic, each message header held twice. The legs read
	// 2,621,440 / 4,145,152 / 2,686,976 bytes on amd64 at GOMAXPROCS 1, 2
	// and 4 (the grid is pinned) and 2,457,600 / 3,886,080 / 2,519,040
	// under GOARCH=386, both stores growing by fixed blocks (shard.Blocks,
	// and shard.Runs over them). Each budget is the reading plus about 2 %:
	// inbox arenas grown by doubling read 3,013,888 / 4,501,248 /
	// 3,063,040, a send buffer grown by slices.Grow on top of those
	// 3,140,800 / 4,648,704 / 3,173,568, an 8-byte field added to the
	// 64-byte Msg 3,390,624 / 5,063,904 / 3,445,920 there, and a send
	// buffer grown by doubling 3,689,664 / 5,902,080 / 4,025,536.
	retrieveHeldBytes        = 2_675_000
	retrieveCachedHeldBytes  = 4_228_000
	retrieveErasureHeldBytes = 2_741_000

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
	walk, _ := routeWalk(refSize)
	for _, c := range []struct {
		name  string
		round func()
	}{
		{"RouteOnly", routeOnly(refSize)},
		{"SoupOnly", soup},
		{"OverlayRepair", repair},
		{"RoutedRound/mode=routed", routedRound(refSize, true)},
		{"RouteWalk", walk},
		{"FullRound", func() { full.Run(1) }},
	} {
		if err := steadyGate(c.name, c.round); err != nil {
			t.Error(err)
		}
	}
}

// TestRetrieveHotAllocs bounds what the protocol allocates serving a
// skewed retrieval stream, with the hot-key cache off and on, and with the
// items dispersed by IDA.
func TestRetrieveHotAllocs(t *testing.T) {
	for _, c := range []struct {
		cached   bool
		erasureK int
		budget   int
	}{
		{false, 0, retrieveAllocs},
		{true, 0, retrieveAllocs},
		{false, 4, retrieveErasureAllocs},
	} {
		name := fmt.Sprintf("cache=%v/erasureK=%d", c.cached, c.erasureK)
		t.Run(name, func(t *testing.T) {
			round, _, _ := retrieveHot(refSize, c.cached, c.erasureK)
			got := allocsPerRound(round, gateRounds)
			t.Logf("%d allocations a round", got)
			if err := checkBudget("RetrieveHot/"+name, got, c.budget); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRetrieveHotMessageBytes bounds what the engine's message buffers
// hold after retrieveHot's gate rounds: every source's send buffer plus
// every shard's inbox arena, the largest store that grows with traffic.
func TestRetrieveHotMessageBytes(t *testing.T) {
	for _, c := range []struct {
		cached   bool
		erasureK int
		budget   int64
	}{
		{false, 0, retrieveHeldBytes},
		{true, 0, retrieveCachedHeldBytes},
		{false, 4, retrieveErasureHeldBytes},
	} {
		t.Run(fmt.Sprintf("cache=%v/erasureK=%d", c.cached, c.erasureK), func(t *testing.T) {
			round, _, nw := retrieveHot(refSize, c.cached, c.erasureK)
			for i := 0; i < gateRounds; i++ {
				round()
			}
			var held int64
			for _, m := range nw.Telemetry().Snapshot() {
				switch m.Name {
				case "dynp2p_engine_mem_out_bytes", "dynp2p_engine_mem_inbox_arena_bytes":
					held += m.Value
				}
			}
			t.Logf("%d bytes in the send buffers and inbox arenas", held)
			if held > c.budget {
				t.Errorf("the send buffers and inbox arenas hold %d bytes, budget is %d", held, c.budget)
			}
		})
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

// TestSetupAllocs bounds what building a network costs as n grows:
// dynp2p.New plus the first round, with 64 shards, two workers, the
// hot-key cache and IDA on, in both routing modes under both rerandomized
// and self-healing edges.
func TestSetupAllocs(t *testing.T) {
	for _, routing := range []dynp2p.RoutingMode{dynp2p.RoutingOracle, dynp2p.RoutingOverlay} {
		for _, edges := range []dynp2p.EdgeMode{dynp2p.EdgesRerandomize, dynp2p.EdgesSelfHealing} {
			setup := func(n int) func() {
				return func() {
					dynp2p.New(dynp2p.Config{
						N: n, Seed: 1, Shards: 64, Workers: 2, ErasureK: 4, Edges: edges,
						Routing: dynp2p.RoutingConfig{Mode: routing},
						Cache:   dynp2p.CacheConfig{Capacity: 8},
					}).Run(1)
				}
			}
			small, large := allocs(setup(1024), 1), allocs(setup(16384), 1)
			t.Logf("%v/%v: %d allocations at n=1024, %d at n=16384", routing, edges, small, large)
			if large-small > setupAllocs {
				t.Errorf("%v/%v: setup allocates %d at n=16384 against %d at n=1024, budget is +%d",
					routing, edges, large, small, setupAllocs)
			}
		}
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
