package dynp2p_test

// One benchmark per reproduction experiment (the paper is a theory paper;
// its "tables and figures" are Theorems 1-4, Lemmas 1-8 and the §4.4/§5
// claims — see DESIGN.md §4 for the index). Each benchmark regenerates the
// corresponding experiment table at Quick scale and reports its headline
// quantity as a benchmark metric, so `go test -bench=.` reproduces the
// whole evaluation. EXPERIMENTS.md records the full tables.

import (
	"strconv"
	"strings"
	"testing"

	"dynp2p"
	"dynp2p/internal/expt"
)

// reportCell parses a numeric cell (possibly a percentage) from a table
// and reports it as a benchmark metric.
func reportCell(b *testing.B, t *expt.Table, row, col int, name string) {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return
	}
	cell := strings.TrimSuffix(t.Rows[row][col], "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return
	}
	b.ReportMetric(v, name)
}

func BenchmarkE01SoupMixing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E01SoupMixing(expt.Quick)
		last := len(t.Rows) - 1
		reportCell(b, t, last, 2, "TV-dest")
		reportCell(b, t, last, 4, "band-frac-%")
	}
}

func BenchmarkE02WalkCompletion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E02WalkCompletion(expt.Quick)
		reportCell(b, t, 0, 1, "mean-delay-uncapped")
	}
}

func BenchmarkE03WalkSurvival(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E03WalkSurvival(expt.Quick)
		reportCell(b, t, 1, 2, "died-frac-C1")
	}
}

func BenchmarkE04ReceiptBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E04ReceiptBounds(expt.Quick)
		reportCell(b, t, 0, 3, "mean-receipts")
	}
}

func BenchmarkE05CommitteeLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E05CommitteeLifetime(expt.Quick)
		reportCell(b, t, 1, 3, "goodness-C1")
	}
}

func BenchmarkE06LandmarkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E06LandmarkSize(expt.Quick)
		last := len(t.Rows) - 1
		reportCell(b, t, last, 4, "landmarks/sqrt-n")
	}
}

func BenchmarkE07StorageAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E07StorageAvailability(expt.Quick)
		reportCell(b, t, 1, 2, "avail-C1-%")
	}
}

func BenchmarkE08RetrievalLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E08RetrievalLatency(expt.Quick)
		last := len(t.Rows) - 1
		reportCell(b, t, last, 2, "success-%")
		reportCell(b, t, last, 5, "p50/ln-n")
	}
}

func BenchmarkE09MessageComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E09MessageComplexity(expt.Quick)
		last := len(t.Rows) - 1
		reportCell(b, t, last, 1, "bits/node/round")
	}
}

func BenchmarkE10ErasureCoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E10ErasureCoding(expt.Quick)
		reportCell(b, t, 1, 2, "IDA-overhead-x")
	}
}

func BenchmarkE11ChurnStress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E11ChurnStress(expt.Quick)
		reportCell(b, t, 0, 4, "retrieval-low-churn-%")
		last := len(t.Rows) - 1
		reportCell(b, t, last, 4, "retrieval-at-n/ln-n-%")
	}
}

func BenchmarkE12BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E12BaselineComparison(expt.Quick)
		// Heaviest churn level: rows come in triples (dynp2p, dht, flood).
		base := len(t.Rows) - 3
		reportCell(b, t, base, 2, "dynp2p-success-%")
		reportCell(b, t, base+1, 2, "dht-success-%")
	}
}

func BenchmarkE13Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.E13Ablations(expt.Quick)
		reportCell(b, t, 0, 1, "defaults-success-%")
	}
}

// BenchmarkMicroStoreRetrieve measures one complete store+retrieve cycle.
func BenchmarkMicroStoreRetrieve(b *testing.B) {
	nw := dynp2p.New(dynp2p.Config{N: 512, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 2})
	nw.Run(nw.WarmupRounds())
	ttl := nw.Tunables().Protocol.SearchTTL
	period := nw.Tunables().Protocol.Period
	b.ResetTimer()
	ok := 0
	for i := 0; i < b.N; i++ {
		key := uint64(1000 + i)
		data := make([]byte, 64)
		nw.Store(i%512, key, data)
		nw.Run(period)
		nw.Retrieve((i*311+7)%512, key, data)
		nw.Run(ttl + 4)
		for _, r := range nw.Results() {
			if r.Success {
				ok++
			}
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "success-rate")
}
