package bitset

import (
	"testing"
	"testing/quick"

	"dynp2p/internal/rng"
)

func TestSetClearTest(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestCountMatchesReference(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) + 1
		r := rng.New(seed)
		s := New(n)
		ref := make(map[int]bool)
		for k := 0; k < n; k++ {
			i := r.Intn(n)
			if r.Bool() {
				s.Set(i)
				ref[i] = true
			} else {
				s.Clear(i)
				delete(ref, i)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Test(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFillAndReset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("Fill(%d): count = %d", n, s.Count())
		}
		s.Reset()
		if s.Count() != 0 {
			t.Fatalf("Reset(%d): count = %d", n, s.Count())
		}
	}
}

func TestBooleanOps(t *testing.T) {
	n := 150
	a, b := New(n), New(n)
	for i := 0; i < n; i += 2 {
		a.Set(i)
	}
	for i := 0; i < n; i += 3 {
		b.Set(i)
	}
	uni := a.Clone()
	uni.Or(b)
	for i := 0; i < n; i++ {
		want := i%2 == 0 || i%3 == 0
		if uni.Test(i) != want {
			t.Fatalf("Or wrong at %d", i)
		}
	}
}

func TestForEachAndMembers(t *testing.T) {
	s := New(300)
	want := []int{0, 5, 63, 64, 199, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v want %v", got, want)
		}
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched sizes did not panic")
		}
	}()
	New(10).Or(New(20))
}

func TestFillTrimsTail(t *testing.T) {
	s := New(70)
	s.Fill()
	// Bits beyond 70 must not be counted.
	if s.Count() != 70 {
		t.Fatalf("count after Fill = %d, want 70", s.Count())
	}
}
