// Erasure contrasts the two storage modes of §4.4 on the same workload:
// full replication (Θ(log n) copies of the item) versus Rabin IDA
// dispersal (Θ(log n) pieces totalling a constant-factor blow-up), and
// shows that both survive churn because the committee reconstructs and
// re-disperses the item at every epoch handover.
package main

import (
	"fmt"

	"dynp2p"
	"dynp2p/internal/rng"
)

func run(name string, idaK int) {
	const n = 512
	const itemLen = 4096
	// C = 0.5 keeps committees in their healthy regime (see E05); K must
	// leave headroom for piece loss between handovers, so K <= L/3 is the
	// laptop-scale analogue of the paper's (h-2)log n threshold.
	nw := dynp2p.New(dynp2p.Config{
		N: n, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 21, ErasureK: idaK,
	})
	nw.Run(nw.WarmupRounds())
	data := make([]byte, itemLen)
	rng.New(3).Fill(data)
	nw.Store(0, 3, data)
	nw.Run(4)

	perCopy := itemLen
	if idaK > 0 {
		perCopy = (itemLen + idaK - 1) / idaK
	}
	copies := nw.CopyCount(3)
	fmt.Printf("%-14s item=%dB copies=%d per-copy=%dB total=%.1fKB (%.1fx the item)\n",
		name, itemLen, copies, perCopy,
		float64(copies*perCopy)/1024, float64(copies*perCopy)/float64(itemLen))

	// Survive five maintenance epochs of churn, then restore.
	nw.Run(5 * nw.Tunables().Protocol.Period)
	nw.Retrieve(256, 3, data)
	nw.Run(nw.Tunables().Protocol.SearchTTL() + 5)
	outcome := "item lost"
	for _, r := range nw.Results() {
		if r.Success {
			outcome = fmt.Sprintf("restored %dB in %d rounds", r.Bytes, r.Done-r.Start)
		}
	}
	st := nw.Stats()
	fmt.Printf("%-14s after 5 epochs (%d replacements): %s", name, st.Engine.Replacements, outcome)
	if idaK > 0 {
		fmt.Printf(" [%d reconstruct-and-redisperse handovers]", st.Proto.IDARecoded)
	}
	fmt.Println()
	fmt.Println()
}

func main() {
	committee := dynp2p.New(dynp2p.Config{N: 512, Seed: 1}).Tunables().Protocol.CommitteeSize
	fmt.Printf("committee size (h log n) = %d\n\n", committee)
	run("replication", 0)
	run("IDA K=L/4", committee/4)
	run("IDA K=L/3", committee/3)
}
