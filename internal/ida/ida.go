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
// zero-length data). The input is not retained.
func (c *Coder) Encode(item []byte) []Piece {
	plen := c.PieceLen(len(item))
	// Arrange the item into K stripes of plen bytes (zero-padded).
	stripes := make([][]byte, c.k)
	for j := 0; j < c.k; j++ {
		s := make([]byte, plen)
		lo := j * plen
		if lo < len(item) {
			hi := lo + plen
			if hi > len(item) {
				hi = len(item)
			}
			copy(s, item[lo:hi])
		}
		stripes[j] = s
	}
	pieces := make([]Piece, c.l)
	for i := 0; i < c.l; i++ {
		row := c.matrix.Row(i)
		data := make([]byte, plen)
		for j := 0; j < c.k; j++ {
			gf256.MulAddSlice(data, stripes[j], row[j])
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

// Decode reconstructs the original item of length itemLen from any K or
// more distinct pieces. Extra pieces beyond K are ignored. Duplicated
// indices count once. A negative itemLen is ErrBadPiece.
func (c *Coder) Decode(pieces []Piece, itemLen int) ([]byte, error) {
	if itemLen < 0 {
		return nil, fmt.Errorf("%w: item length %d", ErrBadPiece, itemLen)
	}
	plen := c.PieceLen(itemLen)
	// Select the first K distinct, well-formed pieces.
	chosen := make([]Piece, 0, c.k)
	seen := make(map[int]bool, c.k)
	for _, p := range pieces {
		if p.Index < 0 || p.Index >= c.l || len(p.Data) != plen {
			return nil, fmt.Errorf("%w: index=%d len=%d want len=%d",
				ErrBadPiece, p.Index, len(p.Data), plen)
		}
		if seen[p.Index] {
			continue
		}
		seen[p.Index] = true
		chosen = append(chosen, p)
		if len(chosen) == c.k {
			break
		}
	}
	if len(chosen) < c.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughPieces, len(chosen), c.k)
	}
	rows := make([]int, c.k)
	for i, p := range chosen {
		rows[i] = p.Index
	}
	sub := c.matrix.SubMatrixRows(rows)
	inv, err := sub.Invert()
	if err != nil {
		// Cannot happen for a Cauchy matrix; guard anyway.
		return nil, fmt.Errorf("ida: dispersal submatrix singular: %v", err)
	}
	// stripes = inv * chosenData (matrix of K stripes).
	item := make([]byte, c.k*plen)
	for j := 0; j < c.k; j++ {
		stripe := item[j*plen : (j+1)*plen]
		row := inv.Row(j)
		for i := 0; i < c.k; i++ {
			gf256.MulAddSlice(stripe, chosen[i].Data, row[i])
		}
	}
	return item[:itemLen], nil
}

// TotalStoredBytes returns the total bytes stored across all L pieces for
// an item of itemLen bytes — used by experiment E10 to compare against
// replication's copies*itemLen.
func (c *Coder) TotalStoredBytes(itemLen int) int {
	return c.l * c.PieceLen(itemLen)
}
