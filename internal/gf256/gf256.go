// Package gf256 implements arithmetic in the finite field GF(2^8) together
// with the small dense-matrix operations needed by the Information
// Dispersal Algorithm (internal/ida), which the paper's §4.4 uses to cut
// storage from Θ(log n)·|I| to a constant-factor overhead.
//
// The field is GF(2)[x]/(x^8+x^4+x^3+x^2+1), i.e. the reduction polynomial
// 0x11d commonly used by Reed–Solomon codecs; 2 generates its
// multiplicative group. Multiplication uses log/exp tables built at init,
// plus a full 64 KiB product table whose per-constant rows drive the
// branch-free slice kernels below (the IDA encode/decode hot loops).
package gf256

import (
	"encoding/binary"
	"fmt"
)

const polynomial = 0x11d

var (
	expTable [512]byte // doubled so Mul can skip a modular reduction
	logTable [256]byte
	mulTable [256][256]byte // mulTable[c][x] = c*x
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		row := &mulTable[c]
		lc := int(logTable[c])
		for s := 1; s < 256; s++ {
			row[s] = expTable[lc+int(logTable[s])]
		}
	}
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Inv returns the multiplicative inverse of a. Panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator 2 raised to the power e (e taken mod 255).
func Exp(e int) byte {
	e %= 255
	if e < 0 {
		e += 255
	}
	return expTable[e]
}

// MulAddSlice computes dst[i] ^= c * src[i] for all i. This is the hot loop
// of IDA encode/decode. len(dst) must be >= len(src).
//
// The c == 1 path (every pivot row of a Cauchy system, and roughly 1/255
// of general coefficients) XORs eight bytes per iteration through
// word-at-a-time loads. The general path walks the 256-byte product row
// for c — one L1-resident lookup per byte, no branches on the data —
// eight bytes per unrolled iteration.
func MulAddSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		n := len(src) &^ 7
		for i := 0; i < n; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:],
				binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
		}
		for i := n; i < len(src); i++ {
			dst[i] ^= src[i]
		}
		return
	}
	row := &mulTable[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// MulSlice computes dst[i] = c * src[i] for all i.
func MulSlice(dst, src []byte, c byte) {
	if c == 0 {
		for i := range src {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	row := &mulTable[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = row[s[0]]
		d[1] = row[s[1]]
		d[2] = row[s[2]]
		d[3] = row[s[3]]
		d[4] = row[s[4]]
		d[5] = row[s[5]]
		d[6] = row[s[6]]
		d[7] = row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] = row[src[i]]
	}
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len Rows*Cols
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("gf256: non-positive matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a slice aliasing row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	d := make([]byte, len(m.Data))
	copy(d, m.Data)
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Cauchy builds the r×c Cauchy matrix A[i][j] = 1/(x_i + y_j) with
// x_i = i and y_j = r + j. Every square submatrix of a Cauchy matrix is
// invertible, which is exactly the property IDA needs: any K of the L
// pieces suffice to reconstruct. Requires r + c <= 256.
func Cauchy(r, c int) *Matrix {
	if r+c > 256 {
		panic(fmt.Sprintf("gf256: Cauchy %dx%d exceeds field size", r, c))
	}
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, Inv(byte(i)^byte(r+j)))
		}
	}
	return m
}

// Vandermonde builds the r×c matrix A[i][j] = (g^i)^j where g = 2.
// Rows use distinct evaluation points g^i so any c rows with distinct
// points are independent as long as r <= 255.
func Vandermonde(r, c int) *Matrix {
	if r > 255 {
		panic("gf256: Vandermonde with more than 255 rows")
	}
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		xi := Exp(i)
		v := byte(1)
		for j := 0; j < c; j++ {
			m.Set(i, j, v)
			v = Mul(v, xi)
		}
	}
	return m
}

// Mul returns the matrix product m*other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic("gf256: matrix dimension mismatch")
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mRow := m.Row(i)
		outRow := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			if mRow[k] != 0 {
				MulAddSlice(outRow, other.Row(k), mRow[k])
			}
		}
	}
	return out
}

// MulVec computes out = m * v where v has length m.Cols.
func (m *Matrix) MulVec(out, v []byte) {
	if len(v) != m.Cols || len(out) != m.Rows {
		panic("gf256: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var acc byte
		for j, c := range row {
			acc ^= Mul(c, v[j])
		}
		out[i] = acc
	}
}

// Invert returns the inverse of a square matrix via Gauss–Jordan
// elimination, or an error if the matrix is singular. m is not modified.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("gf256: singular matrix at column %d", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale pivot row to 1.
		if p := a.At(col, col); p != 1 {
			ip := Inv(p)
			MulSlice(a.Row(col), a.Row(col), ip)
			MulSlice(inv.Row(col), inv.Row(col), ip)
		}
		// Eliminate the column from other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f != 0 {
				MulAddSlice(a.Row(r), a.Row(col), f)
				MulAddSlice(inv.Row(r), inv.Row(col), f)
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SubMatrixRows returns a new matrix made of the given rows of m, in order.
func (m *Matrix) SubMatrixRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}
