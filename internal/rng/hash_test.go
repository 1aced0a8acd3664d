package rng

import (
	"math"
	"testing"
)

func TestHashDeterministicAndDistinct(t *testing.T) {
	a := Hash(7, 1, 2, 3)
	if a != Hash(7, 1, 2, 3) {
		t.Fatal("Hash not deterministic")
	}
	seen := map[uint64]bool{a: true}
	for _, h := range []uint64{
		Hash(7, 1, 2, 4), Hash(7, 1, 3, 2), Hash(8, 1, 2, 3), Hash(7, 1, 2),
	} {
		if seen[h] {
			t.Fatalf("collision between distinct inputs: %x", h)
		}
		seen[h] = true
	}
}

// TestHashInitMixUnrollsHash pins the prefix-hoisting identity the routed
// hop kernel relies on, and Hash itself to values recorded before it was
// expressed through HashInit/HashMix: every seeded decision in the repo
// (fault fates, walk ports, repair proposals) depends on these bits.
func TestHashInitMixUnrollsHash(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		vals []uint64
		want uint64
	}{
		{1, nil, 0x6e4e8f3d5fc98118},
		{1, []uint64{2, 3}, 0x7500b8c8551ebb75},
		{0xdeadbeef, []uint64{1 << 63, 0}, 0x2565212b892afa9e},
	} {
		h := HashInit(tc.seed)
		for _, v := range tc.vals {
			h = HashMix(h, v)
		}
		if got := Hash(tc.seed, tc.vals...); got != tc.want || h != tc.want {
			t.Fatalf("Hash(%#x, %v) = %#x, unrolled %#x, want %#x", tc.seed, tc.vals, got, h, tc.want)
		}
	}
}

func TestHashUnitUniformity(t *testing.T) {
	// Units derived from consecutive hash inputs should look uniform.
	const n = 20000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		u := Unit(Hash(42, uint64(i)))
		if u < 0 || u >= 1 {
			t.Fatalf("Unit out of range: %v", u)
		}
		sum += u
		buckets[int(u*10)]++
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("hash units not uniform: mean %v", mean)
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d count %d far from expected %d", i, b, n/10)
		}
	}
}

func TestRemixSequenceDecorrelated(t *testing.T) {
	x := uint64(1)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		x = Remix(x)
		if seen[x] {
			t.Fatal("Remix cycled within 1000 steps")
		}
		seen[x] = true
	}
}

func TestZipfDistribution(t *testing.T) {
	z := NewZipf(100, 1.0)
	r := New(3)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next(r)]++
	}
	// Empirical frequencies should track the analytic probabilities.
	for _, rank := range []int{0, 1, 9, 50} {
		want := z.Prob(rank)
		got := float64(counts[rank]) / n
		if math.Abs(got-want) > 0.01+want/5 {
			t.Errorf("rank %d: got freq %.4f want ~%.4f", rank, got, want)
		}
	}
	// Rank 0 must dominate rank 99 heavily at s=1.
	if counts[0] < 20*counts[99] {
		t.Errorf("insufficient skew: rank0=%d rank99=%d", counts[0], counts[99])
	}
}

func TestZipfUniformAtZeroExponent(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-12 {
			t.Fatalf("s=0 rank %d prob %v, want 0.1", i, z.Prob(i))
		}
	}
}
