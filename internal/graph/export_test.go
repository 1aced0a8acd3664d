package graph

import "dynp2p/internal/rng"

// RandomRegular builds a d-regular multigraph from d/2 uniformly random
// permutations: for each permutation π, vertex i gets edge (i, π(i)), used
// in both directions. d must be even. This is the standard permutation
// model; the result is an expander with probability 1−o(1), with second
// eigenvalue concentrating near 2√(d−1)/d (Friedman's theorem).
func RandomRegular(n, d int, r *rng.Stream) *Graph {
	if d%2 != 0 {
		panic("graph: RandomRegular requires even degree")
	}
	g := New(n, d)
	g.FillRandomRegular(r)
	return g
}
