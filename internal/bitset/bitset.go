// Package bitset implements a dense fixed-capacity bit set.
//
// The simulator uses bit sets for cheap membership bookkeeping over node
// slots and node ids: Core membership, landmark occupancy, visited marks in
// graph algorithms. Only what the simulator needs is implemented; the zero
// value is an empty set of capacity zero.
package bitset

import "math/bits"

// Set is a dense bit set over [0, Len()).
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of capacity n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in [0, Len()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim clears the bits beyond Len() in the last word.
func (s *Set) trim() {
	if rem := uint(s.n) & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Or unions t into s in place. Panics if capacities differ.
func (s *Set) Or(t *Set) {
	if s.n != t.n {
		panic("bitset: size mismatch")
	}
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + b)
			w &= w - 1
		}
	}
}
