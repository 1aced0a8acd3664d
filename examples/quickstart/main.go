// Quickstart: store one item in a churning P2P network and retrieve it
// from an unrelated node — the paper's headline capability in ~30 lines.
package main

import (
	"fmt"
	"log"

	"dynp2p"
)

func main() {
	// A 1024-node network where every round an oblivious adversary
	// replaces n/log² n ≈ 2% of all nodes and rewires the expander.
	// (The paper's law C·n/log^{1+δ} n with δ=1; smaller δ is swept by
	// the stress experiment E11 — at laptop-scale n it exceeds what any
	// node's lifetime can sustain.)
	nw := dynp2p.New(dynp2p.Config{
		N:          1024,
		ChurnRate:  1,
		ChurnDelta: 1.0,
		Seed:       42,
	})

	// Let the random-walk soup mix so nodes can sample random peers.
	nw.Run(nw.WarmupRounds())

	// The node at slot 0 stores an item. Behind this call: it elects a
	// committee of Θ(log n) random nodes that store copies and maintain
	// Ω(√n) landmark pointers, re-electing themselves as churn bites.
	payload := []byte("hello, dynamic peer-to-peer world")
	nw.Store(0, 7, payload)
	nw.Run(nw.Tunables().Protocol.Period)
	fmt.Printf("after one maintenance epoch: %d copies, %d landmarks\n",
		nw.CopyCount(7), nw.LandmarkCount(7))

	// A completely unrelated node searches for the item by key.
	nw.Retrieve(512, 7, payload)
	nw.Run(nw.Tunables().Protocol.SearchTTL() + 5)

	for _, r := range nw.Results() {
		if !r.Success {
			log.Fatalf("retrieval failed: %+v", r)
		}
		fmt.Printf("retrieved %d bytes in %d rounds (located after %d)\n",
			r.Bytes, r.Done-r.Start, r.Found-r.Start)
	}

	st := nw.Stats()
	fmt.Printf("churn endured: %d node replacements over %d rounds\n",
		st.Engine.Replacements, st.Engine.Rounds)
}
