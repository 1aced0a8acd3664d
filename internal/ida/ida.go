// Package ida implements Rabin's Information Dispersal Algorithm (IDA),
// the erasure-coding technique the paper's §4.4 layers under the storage
// protocol: a data item I is split into L pieces of |I|/K bytes each such
// that any K pieces reconstruct I exactly. The storage blow-up is the ratio
// L/K, a constant, instead of the Θ(log n) factor of plain replication.
//
// The dispersal matrix is an L×K Cauchy matrix over GF(2^8); every K×K
// submatrix of a Cauchy matrix is invertible, so any K distinct pieces
// suffice. Piece i carries its row index so the decoder can rebuild the
// right submatrix.
package ida

import (
	"errors"
	"fmt"

	"dynp2p/internal/gf256"
)

// Piece is one dispersed fragment of an item.
type Piece struct {
	Index int    // row of the dispersal matrix, in [0, L)
	Data  []byte // ceil(len(item)/K) bytes
}

// Coder encodes and decodes items for fixed parameters (K, L).
// A Coder is immutable after New and safe for concurrent use.
type Coder struct {
	k, l   int
	matrix *gf256.Matrix // L×K Cauchy dispersal matrix
}

// New returns a Coder that splits items into l pieces of which any k
// reconstruct. Requires 1 <= k <= l and k+l <= 256 (field-size limit of
// the Cauchy construction).
func New(k, l int) (*Coder, error) {
	if k < 1 || l < k {
		return nil, fmt.Errorf("ida: invalid parameters k=%d l=%d", k, l)
	}
	if k+l > 256 {
		return nil, fmt.Errorf("ida: k+l = %d exceeds 256", k+l)
	}
	return &Coder{k: k, l: l, matrix: gf256.Cauchy(l, k)}, nil
}

// K returns the reconstruction threshold.
func (c *Coder) K() int { return c.k }

// PieceLen returns the byte length of each piece for an item of itemLen
// bytes.
func (c *Coder) PieceLen(itemLen int) int {
	return (itemLen + c.k - 1) / c.k
}

// Encode splits item into L pieces. The item may be empty (pieces carry
// zero-length data). The input is not retained. Encode makes two
// allocations: the pieces and one L×PieceLen block their Data is cut from,
// each capped at its length, so the pieces of one dispersal share the
// block until the last of them is dropped.
func (c *Coder) Encode(item []byte) []Piece {
	plen := c.PieceLen(len(item))
	pieces := make([]Piece, c.l)
	block := make([]byte, c.l*plen)
	for i := range pieces {
		data := block[i*plen : (i+1)*plen : (i+1)*plen]
		row := c.matrix.Row(i)
		// Stripe j is item[j*plen:][:plen], short or empty at the end: its
		// missing bytes are the zero padding, which adds nothing.
		for j := 0; j < c.k; j++ {
			lo := min(j*plen, len(item))
			gf256.MulAddSlice(data, item[lo:min(lo+plen, len(item))], row[j])
		}
		pieces[i] = Piece{Index: i, Data: data}
	}
	return pieces
}

// Errors returned by Decode.
var (
	ErrNotEnoughPieces = errors.New("ida: fewer than K distinct pieces")
	ErrBadPiece        = errors.New("ida: piece index out of range or length mismatch")
)

// pieceSet is a set of piece indices; New caps L at 255.
type pieceSet [4]uint64

// add reports whether i was new to the set, and adds it.
func (s *pieceSet) add(i int) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

// Decode reconstructs the original item of length itemLen from any K or
// more distinct pieces. Extra pieces beyond K are ignored. Duplicated
// indices count once. A negative itemLen is ErrBadPiece. Decode makes two
// allocations: the K×K system it inverts, with room for the inverse, and
// the item.
func (c *Coder) Decode(pieces []Piece, itemLen int) ([]byte, error) {
	if itemLen < 0 {
		return nil, fmt.Errorf("%w: item length %d", ErrBadPiece, itemLen)
	}
	plen := c.PieceLen(itemLen)
	// The first K distinct, well-formed pieces are chosen: row r of the
	// system is the dispersal row of the r-th of them, pieces[:end] the
	// prefix that holds them.
	k := c.k
	sys := make([]byte, 2*k*k)
	sub := gf256.Matrix{Rows: k, Cols: k, Data: sys[:k*k]}
	var seen pieceSet
	n, end := 0, 0
	for ; end < len(pieces) && n < k; end++ {
		p := pieces[end]
		if p.Index < 0 || p.Index >= c.l || len(p.Data) != plen {
			return nil, fmt.Errorf("%w: index=%d len=%d want len=%d",
				ErrBadPiece, p.Index, len(p.Data), plen)
		}
		if seen.add(p.Index) {
			copy(sub.Row(n), c.matrix.Row(p.Index))
			n++
		}
	}
	if n < k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughPieces, n, k)
	}
	inv := gf256.Matrix{Rows: k, Cols: k, Data: sys[k*k:]}
	if err := sub.InvertInto(&inv); err != nil {
		// Cannot happen for a Cauchy matrix; guard anyway.
		return nil, fmt.Errorf("ida: dispersal submatrix singular: %v", err)
	}
	// Stripe j is the sum over the chosen pieces r of inv[j][r]·piece r.
	item := make([]byte, k*plen)
	seen = pieceSet{}
	r := 0
	for _, p := range pieces[:end] {
		if !seen.add(p.Index) {
			continue
		}
		for j := 0; j < k; j++ {
			gf256.MulAddSlice(item[j*plen:(j+1)*plen], p.Data, inv.At(j, r))
		}
		r++
	}
	return item[:itemLen], nil
}

// TotalStoredBytes returns the total bytes stored across all L pieces for
// an item of itemLen bytes — used by experiment E10 to compare against
// replication's copies*itemLen.
func (c *Coder) TotalStoredBytes(itemLen int) int {
	return c.l * c.PieceLen(itemLen)
}
