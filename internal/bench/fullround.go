package bench

import (
	"testing"

	"dynp2p"
)

// FullRound is the canonical full-stack round benchmark body: one simulated
// round of an n-node network — engine, soup, committees/landmarks/storage —
// under the paper's churn law, with one item stored. It is the single
// source of truth for the "full round" number: BenchmarkFullRound and
// BenchmarkRoundMatrix both run it, so the committed BENCH_roundloop.json
// rows can never drift onto different workloads.
func FullRound(b *testing.B, n int) { fullRound(b, n, false) }

// FullRoundTelemetry is FullRound with the whole observability stack hot:
// every operation traced (sample rate 1) and the round-phase profiler
// running. The differential against FullRound is the telemetry tax, gated
// in scripts/bench.sh: it must cost at most a few percent of round time
// and add zero steady-state allocations.
func FullRoundTelemetry(b *testing.B, n int) { fullRound(b, n, true) }

func fullRound(b *testing.B, n int, observed bool) {
	cfg := dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 1}
	if observed {
		cfg.TraceSampleEvery = 1
		cfg.Profile = true
	}
	nw := dynp2p.New(cfg)
	nw.Run(nw.WarmupRounds())
	nw.Store(0, 1, make([]byte, 64))
	nw.Run(4)
	startMoves := nw.Stats().Soup.Moves
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Run(1)
	}
	b.StopTimer()
	moves := nw.Stats().Soup.Moves - startMoves
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(moves)/s, "token-moves/s")
	}
	b.ReportMetric(float64(nw.Stats().Soup.Moves)/float64(nw.Round()), "token-moves/round")
}
