// Package bench holds the developer micro-benchmarks of the simulation
// engine's round loop, and the gates that keep its contracts:
//
//   - BenchmarkRouteOnly     — handler fan-out + message routing, no soup;
//   - BenchmarkRoutedRound   — the same through the overlay router, against the oracle;
//   - BenchmarkRouteWalk     — long id-addressed and keyed walks, in ns per forward;
//   - BenchmarkSoupOnly      — walk-soup token exchange + topology re-randomise;
//   - BenchmarkOverlayRepair — soup + self-healing repair under paper churn;
//   - BenchmarkFullRound     — the complete dynp2p stack under churn, and
//     BenchmarkFullRoundTelemetry with the observability stack hot;
//   - BenchmarkRetrieveHot   — Zipf-skewed retrieval, hot-key cache off and on.
//
// Each runs at n ∈ {4096, 65536}; SoupOnly additionally at n=262144 and
// FullRound at n=2^20 (-short drops everything above the 4096 reference
// size). The end-to-end ledger is the benchmark/ module; these rows are
// for locating a change inside the round, and their absolute times are
// not recorded anywhere.
//
// The gates (gates_test.go) bound only what is exact or taken within one
// process. The allocation-count gates are ordinary tests on the
// benchmarks' own bodies, so `go test ./internal/bench` enforces them.
// The two timing ratios are asserted by the benchmarks themselves and so
// run only under -bench:
//
//	go test -run '^$' -bench . -benchtime 20x ./internal/bench
//
// See DESIGN.md §6.
package bench
