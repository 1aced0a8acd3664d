package gf256

import (
	"testing"
	"testing/quick"

	"dynp2p/internal/rng"
)

func TestFieldAxioms(t *testing.T) {
	check := func(a, b, c byte) bool {
		// Commutativity and associativity of Mul; distributivity over Add.
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		if Mul(a, Add(b, c)) != Add(Mul(a, b), Mul(a, c)) {
			return false
		}
		// Identities.
		if Mul(a, 1) != a || Add(a, 0) != a {
			return false
		}
		// Additive inverse is itself.
		return Add(a, a) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%d) wrong: %d", a, inv)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpGeneratesGroup(t *testing.T) {
	seen := make(map[byte]bool)
	for e := 0; e < 255; e++ {
		seen[Exp(e)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator 2 produced only %d distinct elements", len(seen))
	}
	if Exp(0) != 1 || Exp(255) != 1 || Exp(-1) != Exp(254) {
		t.Fatal("Exp wraparound incorrect")
	}
}

// mulRef is the log/exp-table reference product, independent of the dense
// product table that Mul and the slice kernels now share.
func mulRef(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

func TestMulMatchesLogExpReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulRef(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestMulAddSliceAllCoefficientsAndTails sweeps every coefficient and all
// lengths around the 8-byte unroll boundary, so both the word-at-a-time
// c==1 path and the unrolled table path are exercised with ragged tails.
func TestMulAddSliceAllCoefficientsAndTails(t *testing.T) {
	r := rng.New(7)
	for c := 0; c < 256; c++ {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 33} {
			src := make([]byte, n)
			dst := make([]byte, n)
			want := make([]byte, n)
			r.Fill(src)
			r.Fill(dst)
			copy(want, dst)
			for i := range want {
				want[i] ^= mulRef(byte(c), src[i])
			}
			MulAddSlice(dst, src, byte(c))
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("MulAddSlice mismatch at %d (c=%d, n=%d)", i, c, n)
				}
			}
		}
	}
}

func TestMulAddSliceMatchesScalar(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(100) + 1
		c := byte(r.Intn(256))
		src := make([]byte, n)
		dst := make([]byte, n)
		want := make([]byte, n)
		r.Fill(src)
		r.Fill(dst)
		copy(want, dst)
		for i := range want {
			want[i] ^= Mul(c, src[i])
		}
		MulAddSlice(dst, src, c)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("MulAddSlice mismatch at %d (c=%d)", i, c)
			}
		}
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(100) + 1
		c := byte(r.Intn(256))
		src := make([]byte, n)
		dst := make([]byte, n)
		r.Fill(src)
		MulSlice(dst, src, c)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				t.Fatalf("MulSlice mismatch at %d (c=%d)", i, c)
			}
		}
	}
}

func TestMatrixIdentityMul(t *testing.T) {
	r := rng.New(3)
	m := NewMatrix(5, 5)
	r.Fill(m.Data)
	i5 := Identity(5)
	left := i5.Mul(m)
	right := m.Mul(i5)
	for i := range m.Data {
		if left.Data[i] != m.Data[i] || right.Data[i] != m.Data[i] {
			t.Fatal("identity multiplication changed matrix")
		}
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(8) + 1
		// Random matrices over GF(256) are invertible with prob ~0.996;
		// retry until invertible.
		var m *Matrix
		var inv *Matrix
		var err error
		for {
			m = NewMatrix(n, n)
			r.Fill(m.Data)
			inv, err = m.Invert()
			if err == nil {
				break
			}
		}
		prod := m.Mul(inv)
		id := Identity(n)
		for i := range id.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("m * m^-1 != I for n=%d", n)
			}
		}
	}
}

// TestInvertIntoInPlace: InvertInto reduces its receiver to the identity,
// overwrites whatever inv held, and allocates nothing.
func TestInvertIntoInPlace(t *testing.T) {
	r := rng.New(5)
	m := Cauchy(12, 4).SubMatrixRows([]int{9, 2, 7, 0})
	want, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	a, inv := NewMatrix(4, 4), NewMatrix(4, 4)
	if got := testing.AllocsPerRun(10, func() {
		copy(a.Data, m.Data)
		r.Fill(inv.Data)
		if err := a.InvertInto(inv); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("InvertInto makes %v allocations, want 0", got)
	}
	id := Identity(4)
	for i := range want.Data {
		if inv.Data[i] != want.Data[i] || a.Data[i] != id.Data[i] {
			t.Fatalf("InvertInto: inverse %v, receiver %v; want %v and the identity", inv.Data, a.Data, want.Data)
		}
	}
	if err := NewMatrix(3, 3).InvertInto(NewMatrix(3, 4)); err == nil {
		t.Fatal("inverting into a matrix of another shape should fail")
	}
}

func TestSingularMatrixError(t *testing.T) {
	m := NewMatrix(3, 3)
	// Two equal rows -> singular.
	copy(m.Row(0), []byte{1, 2, 3})
	copy(m.Row(1), []byte{1, 2, 3})
	copy(m.Row(2), []byte{4, 5, 6})
	if _, err := m.Invert(); err == nil {
		t.Fatal("inverting a singular matrix should fail")
	}
}

func TestCauchySubmatricesInvertible(t *testing.T) {
	// The defining property for IDA: any K rows of an L×K Cauchy matrix
	// form an invertible matrix. Check exhaustively for small L, K.
	const l, k = 8, 4
	m := Cauchy(l, k)
	var rows [k]int
	var rec func(start, depth int)
	count := 0
	rec = func(start, depth int) {
		if depth == k {
			sub := m.SubMatrixRows(rows[:])
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("Cauchy submatrix rows %v singular", rows)
			}
			count++
			return
		}
		for i := start; i < l; i++ {
			rows[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	if count != 70 { // C(8,4)
		t.Fatalf("checked %d submatrices, want 70", count)
	}
}

func TestCauchyTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Cauchy did not panic")
		}
	}()
	Cauchy(200, 100)
}

func BenchmarkMicroMulAddSlice(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rng.New(1).Fill(src)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(dst, src, 0x53)
	}
}

func BenchmarkMicroMulAddSliceXOR(b *testing.B) {
	// The c == 1 word-at-a-time path (pivot rows, plain XOR accumulate).
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rng.New(1).Fill(src)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(dst, src, 1)
	}
}
