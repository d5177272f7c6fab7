// Package matrix implements the small dense float64 matrix used by the
// feature-encoding, authenticity, and clustering pipelines. It is not a
// general linear-algebra library: it provides exactly the operations the
// paper's pipeline needs (row/column reductions, centering, scaling, row
// extraction) with bounds-checked, allocation-conscious implementations.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense allocates a zero rows x cols matrix. It panics on negative
// dimensions.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all have equal
// length. The data is copied.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. Mutations
// through the slice mutate the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports element-wise equality within tol.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact preview for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)", m.rows, m.cols)
	if m.rows*m.cols <= 64 {
		b.WriteString(" [")
		for i := 0; i < m.rows; i++ {
			if i > 0 {
				b.WriteString("; ")
			}
			for j := 0; j < m.cols; j++ {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%.3g", m.At(i, j))
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}
