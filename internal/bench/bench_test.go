package bench

import (
	"fmt"
	"runtime"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/overlay"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// refSize is the reference size: the one -short keeps, and the one the
// exact allocation gates in gates_test.go run at. ratioSize is the
// acceptance size the two timing-ratio gates are defined at.
const (
	refSize   = 4096
	ratioSize = 65536
)

// sizes returns the network sizes the round-loop benchmarks run at.
func sizes() []int {
	if testing.Short() {
		return []int{refSize}
	}
	return []int{refSize, ratioSize}
}

// loop is the timed section every round benchmark shares: b.N rounds
// with allocation reporting on. It is also where a benchmark asserts its
// own allocation contract: a run of at least gateRounds rounds that
// averages more than budget allocations per round fails (shorter runs,
// like the harness's N=1 probe, are a single round's noise, not a mean).
func loop(b *testing.B, round func(), budget int) {
	b.ReportAllocs()
	b.ResetTimer()
	got := allocsPerRound(round, b.N)
	b.StopTimer()
	if b.N >= gateRounds {
		if err := checkBudget(b.Name(), got, budget); err != nil {
			b.Fatal(err)
		}
	}
}

// reportMoves reports the soup's token-moves/s for the loop just timed,
// given the move counter's advance across it.
func reportMoves(b *testing.B, moves int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(moves)/s, "token-moves/s")
	}
}

// fanoutHandler sends a fixed number of messages per node per round to
// pseudo-random live targets, exercising the handler fan-out and routing
// paths without any protocol logic on top.
type fanoutHandler struct{ fanout int }

func (fanoutHandler) OnJoin(*simnet.Engine, int, simnet.NodeID, int)  {}
func (fanoutHandler) OnLeave(*simnet.Engine, int, simnet.NodeID, int) {}
func (h fanoutHandler) HandleRound(ctx *simnet.Ctx) {
	n := ctx.E.N()
	for i := 0; i < h.fanout; i++ {
		ctx.SendMsg(ctx.E.IDAt(ctx.Rand.Intn(n)), 1)
	}
}

// routeOnly builds an engine whose only work is message fan-out and
// routing — static topology, no churn, no soup, 4 messages per node per
// round — warmed to steady state, and returns its one-round function.
func routeOnly(n int) func() {
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesStatic,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
	})
	h := fanoutHandler{fanout: 4}
	// Warm so inbox/shard buffers reach capacity (inbox sizes are random
	// maxima; give them time to peak).
	e.Run(h, 64)
	return func() { e.RunRound(h) }
}

// BenchmarkRouteOnly measures one engine round of routeOnly. In steady
// state this path must be allocation-free: steadyAllocs bounds it at
// every size.
func BenchmarkRouteOnly(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			loop(b, routeOnly(n), steadyAllocs)
			b.ReportMetric(float64(4*n), "msgs/round")
		})
	}
}

// soupSizes returns the sizes BenchmarkSoupOnly runs at. The soup is the
// round loop's dominant cost and the reason the n >= 2^20 scenario sizes
// are in reach, so it alone also runs at n=16384, the benchmark ledger's
// steady-oracle size, and at n=262144 when -short is not set — the scale
// point that shows whether token-moves/s holds as the working set leaves
// cache. There the soup holds one cohort and no token between rounds:
// dynp2p_soup_mem_ring_bytes reads 246 MB (the T+2 rows and death
// bitsets), dynp2p_soup_mem_cohort_bytes 55 MB (262144·13 16-byte
// tokens) and dynp2p_soup_mem_samples_bytes 169 MB.
func soupSizes() []int {
	if testing.Short() {
		return []int{refSize}
	}
	return []int{refSize, 16384, ratioSize, 262144}
}

// soupOnly builds an engine whose only work is the random-walk soup plus
// per-round topology re-randomisation — every walk step at the paper's
// default walk density — on the given worker count (0 = GOMAXPROCS),
// warmed past the first delivery until the ring, the cohort buffers and
// the sample staging have stopped growing.
func soupOnly(n, workers int) (round func(), soup *walks.Soup) {
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize, Workers: workers,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
	})
	p := walks.DefaultParams(n)
	soup = walks.NewSoup(e, p, workers)
	e.AddHook(soup)
	// One walk lifetime plus slack.
	e.Run(simnet.NopHandler{}, p.WalkLength+16)
	return func() { e.RunRound(simnet.NopHandler{}) }, soup
}

// BenchmarkSoupOnly measures one engine round of soupOnly, bounded by
// steadyAllocs at every size. At ratioSize on a multi-core host it also
// asserts the soup's scaling contract: the replay lanes share no written
// cache line, so a second worker must pay — Workers 2 takes at most
// workerSpeedup of the Workers 1 round time.
func BenchmarkSoupOnly(b *testing.B) {
	for _, n := range soupSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			round, soup := soupOnly(n, 0)
			start := soup.Metrics().Moves
			loop(b, round, steadyAllocs)
			reportMoves(b, soup.Metrics().Moves-start)
			if n == ratioSize && b.N >= gateRounds && runtime.GOMAXPROCS(0) >= 2 {
				one, _ := soupOnly(n, 1)
				two, _ := soupOnly(n, 2)
				ratioGate(b, "x-workers1", one, two, workerSpeedup)
			}
		})
	}
}

// overlayRepair builds an engine running the soup plus self-healing
// topology repair under the paper's churn law (C=1, δ=0.5): the walk
// exchange, severing every churned slot's edges, and healing the dangling
// ports through sampled splices. The marginal cost over soupOnly is the
// overlay's budget.
func overlayRepair(n int) (round func(), ov *overlay.Overlay) {
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesSelfHealing,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.PaperLaw(1, 0.5),
	})
	p := walks.DefaultParams(n)
	soup := walks.NewSoup(e, p, 0)
	e.AddHook(soup)
	ov = overlay.New(e, soup, overlay.Config{})
	e.AddHook(ov)
	e.Run(simnet.NopHandler{}, p.WalkLength+16)
	return func() { e.RunRound(simnet.NopHandler{}) }, ov
}

// BenchmarkOverlayRepair measures one engine round of overlayRepair; like
// the other steady-state engine paths it is bounded by steadyAllocs.
func BenchmarkOverlayRepair(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			round, ov := overlayRepair(n)
			start := ov.Metrics()
			loop(b, round, steadyAllocs)
			m := ov.Metrics()
			repairs := m.Splices + m.DirectPairs - start.Splices - start.DirectPairs
			b.ReportMetric(float64(repairs)/float64(b.N), "repairs/round")
		})
	}
}

// neighborFanout sends a fixed number of messages per node per round to
// pseudo-random overlay neighbors; the engine's routing mode decides
// whether they are id-addressed through the oracle or hop-by-hop through
// the router. Targeting neighbors keeps routed paths short (one forward),
// so the row isolates the router's per-message machinery — header setup,
// port draw, arena delivery — rather than walk length.
type neighborFanout struct {
	fanout int
}

func (neighborFanout) OnJoin(*simnet.Engine, int, simnet.NodeID, int)  {}
func (neighborFanout) OnLeave(*simnet.Engine, int, simnet.NodeID, int) {}
func (h neighborFanout) HandleRound(ctx *simnet.Ctx) {
	nb := ctx.E.Graph().Neighbors(ctx.Slot)
	if len(nb) == 0 {
		return
	}
	for i := 0; i < h.fanout; i++ {
		ctx.SendMsg(ctx.E.IDAt(int(nb[ctx.Rand.Intn(len(nb))])), 1)
	}
}

// routedRound builds an engine doing neighbor fan-out — static topology,
// no churn, 4 messages per node per round — with the overlay router on
// (routed) or through the id-addressed oracle fast path.
func routedRound(n int, routed bool) func() {
	cfg := simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesStatic,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
	}
	if routed {
		cfg.Routing = simnet.RoutingConfig{Mode: simnet.RoutingOverlay}
	}
	e := simnet.New(cfg)
	h := neighborFanout{fanout: 4}
	e.Run(h, 64)
	return func() { e.RunRound(h) }
}

// BenchmarkRoutedRound measures one engine round of routedRound in both
// modes: the per-message cost of hopping the expander instead of
// teleporting. Hop-by-hop forwarding must stay steady-state
// allocation-free like the rest of the engine paths, so mode=routed is
// bounded by steadyAllocs; the oracle row is the comparison, not a
// contract.
func BenchmarkRoutedRound(b *testing.B) {
	for _, n := range sizes() {
		for _, routed := range []bool{true, false} {
			label, budget := "oracle", noBudget
			if routed {
				label, budget = "routed", steadyAllocs
			}
			b.Run(fmt.Sprintf("n=%d/mode=%s", n, label), func(b *testing.B) {
				loop(b, routedRound(n, routed), budget)
				b.ReportMetric(float64(4*n), "msgs/round")
			})
		}
	}
}

// benchFullRound times one round of fullRound's network and reports its
// soup throughput.
func benchFullRound(b *testing.B, n int, observed bool) {
	nw := fullRound(n, observed)
	start := nw.Stats().Soup.Moves
	loop(b, func() { nw.Run(1) }, noBudget)
	reportMoves(b, nw.Stats().Soup.Moves-start)
	b.ReportMetric(float64(nw.Stats().Soup.Moves)/float64(nw.Round()), "token-moves/round")
}

// BenchmarkFullRound measures one round of the complete stack (the
// fullRound body). Without -short it also runs the paper-scale n=2^20
// point the delta-encoded walk ring and adaptive shard grid exist for
// (minutes of warm-up), so `-bench 'FullRound$' -cpu 1,2,4` is the
// multi-core matrix: GOMAXPROCS governs both the engine's default worker
// count and the adaptive shard-grid pick. The refSize row's allocations
// are gated by TestSteadyStateAllocs; the larger rows are recorded.
func BenchmarkFullRound(b *testing.B) {
	ns := sizes()
	if !testing.Short() {
		ns = append(ns, 1<<20)
	}
	for _, n := range ns {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchFullRound(b, n, false) })
	}
}

// BenchmarkFullRoundTelemetry is BenchmarkFullRound with the whole
// observability stack hot: the telemetry-tax row. The allocation half of
// the tax is exact and gated in gates_test.go; the time half is asserted
// here, at ratioSize only — at small sizes run-to-run noise exceeds the
// real tax, which is ~0.
func BenchmarkFullRoundTelemetry(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchFullRound(b, n, true)
			if n == ratioSize && b.N >= gateRounds {
				plain, observed := fullRound(n, false), fullRound(n, true)
				ratioGate(b, "x-FullRound", func() { plain.Run(1) }, func() { observed.Run(1) }, telemetryTax)
			}
		})
	}
}

// BenchmarkRetrieveHot measures rounds of a Zipf-skewed retrieval
// workload with the hot-key cache off (the baseline) and on; the body is
// RetrieveHot. Neither row is alloc-gated: each retrieval still allocates
// the rosters and child lists it draws and clones out of messages, its
// landmarks' task lists, and a table's first entry on every node its trees
// reach.
func BenchmarkRetrieveHot(b *testing.B) {
	for _, n := range sizes() {
		for _, c := range []bool{false, true} {
			label := "off"
			if c {
				label = "on"
			}
			b.Run(fmt.Sprintf("n=%d/cache=%s", n, label), func(b *testing.B) { RetrieveHot(b, n, c) })
		}
	}
}
