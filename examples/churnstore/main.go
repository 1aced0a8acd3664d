// Churnstore models the paper's motivating application (§1): a fully
// decentralised backup service in the style of CrashPlan/Symform, where
// peers store each other's data with no central servers — while half the
// network turns over.
//
// It stores a batch of "backup files", lets the network churn until the
// cumulative replacements exceed the network size several times over, and
// audits availability (Definition 1) at every maintenance epoch.
package main

import (
	"fmt"

	"dynp2p"
	"dynp2p/internal/rng"
)

func main() {
	const (
		n     = 1024
		files = 10
	)
	nw := dynp2p.New(dynp2p.Config{
		N:          n,
		ChurnRate:  1,
		ChurnDelta: 1.0,
		Seed:       7,
	})
	tun := nw.Tunables()
	nw.Run(nw.WarmupRounds())

	// Each "user" stores one backup file from a different node.
	contents := make(map[uint64][]byte, files)
	for i := 0; i < files; i++ {
		key := uint64(1000 + i)
		data := make([]byte, 512)
		rng.New(key).Fill(data)
		contents[key] = data
		nw.Store((i*97)%n, key, data)
	}
	nw.Run(tun.Protocol.Period)

	fmt.Printf("backup of %d files on %d nodes; auditing availability under churn\n", files, n)
	fmt.Printf("%-8s %-14s %-12s %-12s %-10s\n", "epoch", "replacements", "avail-files", "mean-copies", "landmarks")

	epoch := 0
	for nw.Stats().Engine.Replacements < int64(3*n) {
		nw.Run(tun.Protocol.Period)
		epoch++
		avail := 0
		copies, lms := 0, 0
		for key := range contents {
			c := nw.CopyCount(key)
			l := nw.LandmarkCount(key)
			if c > 0 && l > 0 {
				avail++
			}
			copies += c
			lms += l
		}
		fmt.Printf("%-8d %-14d %-12s %-12.1f %-10d\n",
			epoch, nw.Stats().Engine.Replacements,
			fmt.Sprintf("%d/%d", avail, files),
			float64(copies)/float64(files), lms/files)
	}

	// Final restore drill: every file must come back intact.
	fmt.Println("\nrestore drill:")
	for i := 0; i < files; i++ {
		key := uint64(1000 + i)
		nw.Retrieve((i*389+11)%n, key, contents[key])
	}
	nw.Run(tun.Protocol.SearchTTL() + 5)
	restored := 0
	for _, r := range nw.Results() {
		if r.Success {
			restored++
		}
	}
	fmt.Printf("restored %d/%d files after the network turned over %.1fx\n",
		restored, files, float64(nw.Stats().Engine.Replacements)/float64(n))
}
