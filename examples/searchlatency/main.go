// Searchlatency demonstrates Theorem 4's O(log n) retrieval bound: it
// sweeps the network size and shows that the median rounds-to-locate
// grows like log n (the latency/ln n column stays flat), while success
// stays near 100%.
package main

import (
	"fmt"
	"math"

	"dynp2p"
	"dynp2p/internal/rng"
	"dynp2p/internal/stats"
)

func main() {
	fmt.Printf("%-7s %-10s %-9s %-9s %-9s\n", "n", "success", "p50", "p95", "p50/ln n")
	for _, n := range []int{256, 512, 1024, 2048} {
		nw := dynp2p.New(dynp2p.Config{N: n, ChurnRate: 1, ChurnDelta: 1.0, Seed: 99})
		nw.Run(nw.WarmupRounds())
		data := make([]byte, 64)
		rng.New(5).Fill(data)
		nw.Store(0, 5, data)
		nw.Run(nw.Tunables().Protocol.Period)

		const searches = 16
		var lats []float64
		ok, issued := 0, 0
		for wave := 0; wave < 4; wave++ {
			for i := 0; i < searches/4; i++ {
				nw.Retrieve((wave*997+i*131+17)%n, 5, data)
				issued++
			}
			nw.Run(nw.Tunables().Protocol.SearchTTL() + 4)
			for _, r := range nw.Results() {
				if r.Success {
					ok++
					lats = append(lats, float64(r.Found-r.Start))
				}
			}
		}
		p50, p95 := 0.0, 0.0
		if len(lats) > 0 {
			sm := stats.Summarize(lats)
			p50, p95 = sm.Median, sm.P95
		}
		ln := math.Log(float64(n))
		fmt.Printf("%-7d %-10s %-9.1f %-9.1f %-9.2f\n",
			n, fmt.Sprintf("%d/%d", ok, issued), p50, p95, p50/ln)
	}
	fmt.Println("\nflat p50/ln n across the sweep is the O(log n) signature (Thm 4)")
}
