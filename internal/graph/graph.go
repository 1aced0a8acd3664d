// Package graph implements the d-regular multigraph substrate of the
// dynamic-network model (paper §2.1): in every round the topology must be a
// d-regular non-bipartite expander over the n live slots.
//
// Graphs are stored as a flat adjacency array (n·d int32 entries) so the
// per-round regeneration and the random-walk inner loop stay allocation-free
// and cache-friendly. Vertices are *slots* (0..n-1); the simulation engine
// maps slots to node identities (see internal/simnet).
package graph

import (
	"fmt"
	"math"

	"dynp2p/internal/rng"
)

// Graph is a d-regular multigraph on n vertices. Self-loops and parallel
// edges are permitted (the permutation model produces them with vanishing
// probability); random walks treat each adjacency entry as one port.
type Graph struct {
	n, d int
	adj  []int32 // adj[v*d+p] = p-th neighbour of v
	perm []int32 // scratch for the Fill* constructors, reused across rounds
	j    *journal
}

// New returns an edgeless graph shell with capacity for n vertices of
// degree d. All ports initially point at vertex 0; callers are expected to
// fill the adjacency via a constructor below or SetPort.
func New(n, d int) *Graph {
	if n <= 0 || d <= 0 {
		panic("graph: non-positive n or d")
	}
	return &Graph{n: n, d: d, adj: make([]int32, n*d)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Degree returns the regular degree d.
func (g *Graph) Degree() int { return g.d }

// Neighbors returns a slice aliasing vertex v's d adjacency ports.
// The caller must not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[v*g.d : (v+1)*g.d]
}

// Adjacency returns the flat n·d adjacency array (adj[v*d+p] is the p-th
// neighbour of v), aliasing the graph's storage. The caller must not
// modify it. Per-round snapshotting (e.g. the walk soup's lazy trajectory
// ring) copies this wholesale instead of walking n Neighbors slices.
func (g *Graph) Adjacency() []int32 { return g.adj }

// Neighbor returns the p-th neighbour of v.
func (g *Graph) Neighbor(v, p int) int32 { return g.adj[v*g.d+p] }

// SetPort sets the p-th adjacency port of v. It is the caller's job to keep
// the multigraph consistent (each undirected edge appears once per side).
// When a change journal is enabled the write is recorded (see
// EnableJournal); SetPort is the single journaled mutation point — every
// incremental rewire (overlay splice, churn severing) goes through it.
func (g *Graph) SetPort(v, p int, w int32) {
	idx := v*g.d + p
	if g.j != nil {
		g.j.record(int32(idx), g.adj[idx], w)
	}
	g.adj[idx] = w
}

// setPortBulk is SetPort without the journal hook, for the Fill*
// constructors: they rewrite every port and report a single journal
// disruption instead of n·d delta entries.
func (g *Graph) setPortBulk(v, p int, w int32) { g.adj[v*g.d+p] = w }

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

// permScratch returns the reusable n-length permutation buffer, allocating
// it on first use. Keeping it on the Graph makes every subsequent per-round
// re-randomisation allocation-free.
func (g *Graph) permScratch() []int32 {
	if g.perm == nil {
		g.perm = make([]int32, g.n)
	}
	return g.perm
}

// FillRandomRegular overwrites g's edges with a fresh permutation-model
// d-regular multigraph drawn from r. It reuses g's storage (adjacency and
// permutation scratch), so the dynamic network can re-randomise edges every
// round with zero allocation.
func (g *Graph) FillRandomRegular(r *rng.Stream) {
	if g.d%2 != 0 {
		panic("graph: FillRandomRegular requires even degree")
	}
	g.j.disrupt()
	half := g.d / 2
	perm := g.permScratch()
	for k := 0; k < half; k++ {
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := g.n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := 0; i < g.n; i++ {
			g.setPortBulk(i, 2*k, perm[i])
			g.setPortBulk(int(perm[i]), 2*k+1, int32(i))
		}
	}
}

// IsConnected reports whether the graph is connected (ignoring direction;
// the multigraph is symmetric by construction).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	visited := make([]bool, g.n)
	stack := make([]int32, 0, g.n)
	stack = append(stack, 0)
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(int(v)) {
			if !visited[w] {
				visited[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// IsBipartite reports whether the graph admits a proper 2-colouring.
// Non-bipartiteness is required by the model so that random walks converge
// to the uniform distribution instead of oscillating.
func (g *Graph) IsBipartite() bool {
	color := make([]int8, g.n) // 0 = unseen, 1/2 = sides
	stack := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(int(v)) {
				if int32(w) == v {
					return false // self-loop: odd cycle of length 1
				}
				switch color[w] {
				case 0:
					color[w] = 3 - color[v]
					stack = append(stack, w)
				case color[v]:
					return false
				}
			}
		}
	}
	return true
}

// SpectralGapEstimate estimates λ = max(|λ₂|, |λₙ|) of the random-walk
// transition matrix P = A/d via power iteration with deflation of the
// all-ones eigenvector. Smaller λ means faster mixing; the paper assumes a
// fixed bound λ < 1. iters controls accuracy (30–60 is ample for tests).
func (g *Graph) SpectralGapEstimate(r *rng.Stream, iters int) float64 {
	return g.SpectralGapEstimateScratch(r, iters, make([]float64, g.n), make([]float64, g.n))
}

// SpectralGapEstimateScratch is SpectralGapEstimate with caller-provided
// iteration vectors (each of length N), so per-round telemetry (the
// self-healing overlay measures λ on a cadence) can run allocation-free.
func (g *Graph) SpectralGapEstimateScratch(r *rng.Stream, iters int, x, y []float64) float64 {
	n := g.n
	if len(x) != n || len(y) != n {
		panic("graph: spectral scratch vectors must have length N")
	}
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	deflate(x)
	normalize(x)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		// y = P x
		for v := 0; v < n; v++ {
			var s float64
			for _, w := range g.Neighbors(v) {
				s += x[w]
			}
			y[v] = s / float64(g.d)
		}
		deflate(y)
		lambda = norm(y) // since |x| = 1, |Px| approximates |λ|
		if lambda == 0 {
			return 0
		}
		normalize(y)
		x, y = y, x
	}
	return lambda
}

func deflate(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	n := norm(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

// CheckRegular verifies that every adjacency entry is a valid vertex and
// that the multigraph is symmetric as a degree sequence (each vertex is
// referenced exactly d times). Returns an error describing the first
// violation. Used by tests and failure-injection experiments.
func (g *Graph) CheckRegular() error {
	refs := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		for p := 0; p < g.d; p++ {
			w := g.Neighbor(v, p)
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("graph: vertex %d port %d points at invalid vertex %d", v, p, w)
			}
			refs[w]++
		}
	}
	for v, c := range refs {
		if c != g.d {
			return fmt.Errorf("graph: vertex %d referenced %d times, want %d", v, c, g.d)
		}
	}
	return nil
}
