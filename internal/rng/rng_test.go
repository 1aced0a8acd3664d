package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide %d/64 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Streams derived with adjacent ids must not be shifted copies of
	// each other.
	a := Derive(7, 100)
	b := Derive(7, 101)
	var av, bv [128]uint64
	for i := range av {
		av[i] = a.Uint64()
		bv[i] = b.Uint64()
	}
	for shift := 0; shift < 8; shift++ {
		matches := 0
		for i := 0; i+shift < len(av); i++ {
			if av[i+shift] == bv[i] {
				matches++
			}
		}
		if matches > 2 {
			t.Fatalf("derived streams look like shifted copies (shift=%d, matches=%d)", shift, matches)
		}
	}
}

func TestDeriveReproducible(t *testing.T) {
	a := Derive(99, 5)
	b := Derive(99, 5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive is not reproducible")
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			v := r.Uint64n(n)
			if v >= n {
				t.Fatalf("Uint64n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	// Chi-square-ish sanity check on a small modulus.
	r := New(11)
	const n = 10
	const draws = 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has count %d, want about %.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		New(seed).ShuffleInts(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillDeterministic(t *testing.T) {
	a := make([]byte, 37)
	b := make([]byte, 37)
	New(23).Fill(a)
	New(23).Fill(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Fill not deterministic")
		}
	}
	// And not all zero.
	zero := true
	for _, v := range a {
		if v != 0 {
			zero = false
		}
	}
	if zero {
		t.Fatal("Fill produced all zeros")
	}
}

func TestSplitIndependent(t *testing.T) {
	parent := New(31)
	child := parent.Split()
	// Child and parent must produce different sequences.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split child mirrors parent %d/64 times", same)
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := New(37)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make([]bool, len(s))
	for _, v := range s {
		if seen[v] {
			t.Fatal("Shuffle lost an element")
		}
		seen[v] = true
	}
}

func BenchmarkMicroUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkMicroIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(12345)
	}
	_ = sink
}
