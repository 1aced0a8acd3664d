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
