package shard

// Of maps a slot in [0, n) to its shard, exactly consistent with Bounds:
// slot s belongs to the unique shard sh with Bounds(sh, n) containing s.
// (The naive slot*count/n disagrees with the Bounds partition for some
// (slot, n); this is the proper inverse: the largest sh with
// sh*n/count <= slot.)
func (g Grid) Of(slot, n int) int {
	return (g.count*(slot+1) - 1) / n
}
