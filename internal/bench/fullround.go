package bench

import "dynp2p"

// fullRound builds the canonical full-stack network: n nodes — engine,
// soup, committees/landmarks/storage — under the paper's churn law, warmed
// up, with one item stored. It is the single source of the "full round"
// number: BenchmarkFullRound, BenchmarkFullRoundTelemetry and the
// telemetry gates all run it, so they can never drift onto different
// workloads. With observed set the whole observability stack is hot:
// every operation traced (sample rate 1) and the round-phase profiler
// running; the differential against the plain network is the telemetry
// tax.
func fullRound(n int, observed bool) *dynp2p.Network {
	cfg := dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 1}
	if observed {
		cfg.TraceSampleEvery = 1
		cfg.Profile = true
	}
	nw := dynp2p.New(cfg)
	nw.Run(nw.WarmupRounds())
	nw.Store(0, 1, make([]byte, 64))
	nw.Run(4)
	return nw
}
