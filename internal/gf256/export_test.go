package gf256

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Exp returns the generator 2 raised to the power e (e taken mod 255).
func Exp(e int) byte {
	e %= 255
	if e < 0 {
		e += 255
	}
	return expTable[e]
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

// Invert returns the inverse of a square matrix, or an error if it is
// singular. m is not modified.
func (m *Matrix) Invert() (*Matrix, error) {
	inv := NewMatrix(m.Rows, m.Cols)
	if err := m.Clone().InvertInto(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// SubMatrixRows returns a new matrix made of the given rows of m, in order.
func (m *Matrix) SubMatrixRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}
