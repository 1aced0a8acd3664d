package ida

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"dynp2p/internal/rng"
)

func TestRoundTripAllSubsets(t *testing.T) {
	// Every K-subset of pieces must reconstruct exactly.
	const k, l = 3, 6
	c, err := New(k, l)
	if err != nil {
		t.Fatal(err)
	}
	item := []byte("the quick brown fox jumps over the lazy dog")
	pieces := c.Encode(item)
	if len(pieces) != l {
		t.Fatalf("got %d pieces, want %d", len(pieces), l)
	}
	var idx [k]int
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			sel := make([]Piece, k)
			for i, j := range idx {
				sel[i] = pieces[j]
			}
			got, err := c.Decode(sel, len(item))
			if err != nil {
				t.Fatalf("decode subset %v: %v", idx, err)
			}
			if !bytes.Equal(got, item) {
				t.Fatalf("subset %v reconstructed wrong data", idx)
			}
			return
		}
		for i := start; i < l; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestRoundTripRandom(t *testing.T) {
	check := func(seed uint64, kRaw, extraRaw, lenRaw uint8) bool {
		k := int(kRaw)%10 + 1
		l := k + int(extraRaw)%10
		itemLen := int(lenRaw)
		c, err := New(k, l)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		item := make([]byte, itemLen)
		r.Fill(item)
		pieces := c.Encode(item)
		// Shuffle and take a random K-subset.
		r.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
		got, err := c.Decode(pieces[:k], itemLen)
		if err != nil {
			return false
		}
		return bytes.Equal(got, item)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWithExtraAndDuplicatePieces(t *testing.T) {
	c, _ := New(4, 8)
	item := []byte("hello, dispersal world")
	pieces := c.Encode(item)
	// Duplicates of one index plus all pieces: should still work.
	input := append([]Piece{pieces[2], pieces[2], pieces[2]}, pieces...)
	got, err := c.Decode(input, len(item))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("decode with duplicates returned wrong data")
	}
}

func TestDecodeTooFewPieces(t *testing.T) {
	c, _ := New(5, 9)
	item := make([]byte, 100)
	pieces := c.Encode(item)
	// 4 distinct pieces (one duplicated to 5 entries) must fail.
	input := []Piece{pieces[0], pieces[1], pieces[2], pieces[3], pieces[3]}
	if _, err := c.Decode(input, len(item)); !errors.Is(err, ErrNotEnoughPieces) {
		t.Fatalf("want ErrNotEnoughPieces, got %v", err)
	}
}

func TestDecodeBadPiece(t *testing.T) {
	c, _ := New(3, 5)
	item := make([]byte, 30)
	pieces := c.Encode(item)
	bad := pieces[0]
	bad.Index = 99
	if _, err := c.Decode([]Piece{bad, pieces[1], pieces[2]}, len(item)); !errors.Is(err, ErrBadPiece) {
		t.Fatalf("want ErrBadPiece for bad index, got %v", err)
	}
	short := pieces[0]
	short.Data = short.Data[:len(short.Data)-1]
	if _, err := c.Decode([]Piece{short, pieces[1], pieces[2]}, len(item)); !errors.Is(err, ErrBadPiece) {
		t.Fatalf("want ErrBadPiece for short piece, got %v", err)
	}
	// A negative length off the wire rounds to zero-length pieces, which
	// match it: Decode must refuse the length, not slice the item by it.
	c4, _ := New(4, 6)
	empty := []Piece{{Index: 0}, {Index: 1}, {Index: 2}, {Index: 3}}
	if _, err := c4.Decode(empty, -1); !errors.Is(err, ErrBadPiece) {
		t.Fatalf("want ErrBadPiece for item length -1, got %v", err)
	}
}

// FuzzIDA: any K of the L pieces of an item decode to the item, and Decode
// returns or errors — never panics — on whatever pieces and length it is
// handed.
func FuzzIDA(f *testing.F) {
	for _, size := range []int{0, 1, 17, 43, 255} { // within TestRoundTripRandom's sizes
		f.Add(uint8(3), uint8(3), make([]byte, size), uint64(0b101010), []byte{}, int64(size))
	}
	// k = 4, four zero-length pieces, length -1: the panic Decode had.
	f.Add(uint8(3), uint8(2), []byte{}, uint64(0b1111), []byte{}, int64(-1))
	f.Add(uint8(1), uint8(0), []byte("abc"), uint64(1), []byte{0x0f, 0xf8}, int64(3))
	f.Fuzz(func(t *testing.T, kRaw, extraRaw uint8, item []byte, keep uint64, cut []byte, itemLen int64) {
		k := int(kRaw)%10 + 1
		c, err := New(k, k+int(extraRaw)%10)
		if err != nil {
			t.Fatal(err)
		}
		// Keep the pieces keep's bits pick, topped up from the tail to K.
		pieces := c.Encode(item)
		var kept []Piece
		for i, p := range pieces {
			if keep>>i&1 == 1 || len(pieces)-i <= k-len(kept) {
				kept = append(kept, p)
			}
		}
		got, err := c.Decode(kept, len(item))
		if err != nil || !bytes.Equal(got, item) {
			t.Fatalf("k=%d l=%d: %d pieces decoded to %x, %v; want %x", k, c.L(), len(kept), got, err, item)
		}
		// Hostile input: cut[i] shifts piece i's index and truncates its
		// data, and the item length is anything at all.
		for i := range kept[:min(len(kept), len(cut))] {
			kept[i].Index += int(int8(cut[i]) >> 3)
			kept[i].Data = kept[i].Data[:min(len(kept[i].Data), int(cut[i]&7))]
		}
		c.Decode(kept, int(itemLen))
	})
}

func TestEmptyItem(t *testing.T) {
	c, _ := New(3, 6)
	pieces := c.Encode(nil)
	got, err := c.Decode(pieces[:3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decode of empty item returned %d bytes", len(got))
	}
}

func TestItemLenNotMultipleOfK(t *testing.T) {
	c, _ := New(4, 7)
	for _, n := range []int{1, 2, 3, 5, 17, 101} {
		item := make([]byte, n)
		rng.New(uint64(n)).Fill(item)
		pieces := c.Encode(item)
		got, err := c.Decode(pieces[3:7], n)
		if err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if !bytes.Equal(got, item) {
			t.Fatalf("len %d: wrong reconstruction", n)
		}
	}
}

func TestParameterValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(5, 4); err == nil {
		t.Fatal("l<k accepted")
	}
	if _, err := New(130, 130); err == nil {
		t.Fatal("k+l>256 accepted")
	}
	if _, err := New(1, 1); err != nil {
		t.Fatalf("k=l=1 rejected: %v", err)
	}
}

func TestOverheadAndSizes(t *testing.T) {
	c, _ := New(5, 15)
	if c.K() != 5 || c.L() != 15 {
		t.Fatal("accessors wrong")
	}
	if c.PieceLen(100) != 20 {
		t.Fatalf("PieceLen(100) = %d, want 20", c.PieceLen(100))
	}
	if c.PieceLen(101) != 21 {
		t.Fatalf("PieceLen(101) = %d, want 21", c.PieceLen(101))
	}
	if c.TotalStoredBytes(100) != 300 {
		t.Fatalf("TotalStoredBytes(100) = %d, want 300", c.TotalStoredBytes(100))
	}
}

func TestPieceLossTolerance(t *testing.T) {
	// Simulate churn destroying pieces: with l-k pieces lost, decode still
	// succeeds; with one more lost, it fails.
	c, _ := New(6, 14)
	item := make([]byte, 512)
	rng.New(9).Fill(item)
	pieces := c.Encode(item)
	surviving := pieces[:6] // exactly K survivors
	got, err := c.Decode(surviving, len(item))
	if err != nil || !bytes.Equal(got, item) {
		t.Fatalf("decode with exactly K survivors failed: %v", err)
	}
	if _, err := c.Decode(pieces[:5], len(item)); err == nil {
		t.Fatal("decode with K-1 survivors should fail")
	}
}

func BenchmarkMicroIDAEncode(b *testing.B) {
	c, _ := New(10, 20)
	item := make([]byte, 64*1024)
	rng.New(1).Fill(item)
	b.SetBytes(int64(len(item)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Encode(item)
	}
}

func BenchmarkMicroIDADecode(b *testing.B) {
	c, _ := New(10, 20)
	item := make([]byte, 64*1024)
	rng.New(1).Fill(item)
	pieces := c.Encode(item)
	sel := pieces[5:15]
	b.SetBytes(int64(len(item)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(sel, len(item)); err != nil {
			b.Fatal(err)
		}
	}
}
