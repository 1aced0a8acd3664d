package dynp2p_test

import (
	"testing"

	"dynp2p"
)

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
