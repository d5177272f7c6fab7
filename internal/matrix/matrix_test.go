package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatal("dims wrong")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatal("not zeroed")
			}
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
}

func TestBoundsPanic(t *testing.T) {
	m := NewDense(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 6 {
		t.Fatal("FromRows wrong")
	}
	// mutation of source must not affect matrix
	src := [][]float64{{1, 2}}
	m2 := FromRows(src)
	src[0][0] = 99
	if m2.At(0, 0) != 1 {
		t.Fatal("FromRows did not copy")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowAliasesColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(0)[1] = 9
	if m.At(0, 1) != 9 {
		t.Fatal("Row should alias")
	}
}

func TestColMeansRowMeans(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {3, 4, 5}})
	cm := m.ColMeans()
	if !almostEq(cm[0], 2) || !almostEq(cm[1], 3) || !almostEq(cm[2], 4) {
		t.Fatalf("ColMeans = %v", cm)
	}
}

func TestCenterColumns(t *testing.T) {
	m := FromRows([][]float64{{1, 10}, {3, 20}, {5, 30}})
	means := m.CenterColumns()
	if !almostEq(means[0], 3) || !almostEq(means[1], 20) {
		t.Fatalf("means = %v", means)
	}
	// Columns now sum to zero — the authenticity invariant.
	for j := 0; j < m.Cols(); j++ {
		s := 0.0
		for i := 0; i < m.Rows(); i++ {
			s += m.At(i, j)
		}
		if !almostEq(s, 0) {
			t.Fatalf("column %d sums to %v after centering", j, s)
		}
	}
}

func TestScaleSumNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	m.Scale(2)
	if !almostEq(m.Sum(), 14) {
		t.Fatalf("sum = %v", m.Sum())
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliased")
	}
	if !m.Equal(m.Clone(), 0) {
		t.Fatal("Equal(self) false")
	}
	if m.Equal(NewDense(1, 3), 0) {
		t.Fatal("Equal across shapes")
	}
}

func TestSelectColumnsRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	sc := m.SelectColumns([]int{2, 0})
	if sc.Cols() != 2 || sc.At(0, 0) != 3 || sc.At(1, 1) != 4 {
		t.Fatalf("SelectColumns = %v", sc)
	}
	sr := m.SelectRows([]int{1})
	if sr.Rows() != 1 || sr.At(0, 2) != 6 {
		t.Fatalf("SelectRows = %v", sr)
	}
}

func TestColVariances(t *testing.T) {
	m := FromRows([][]float64{{1, 5}, {3, 5}})
	v := m.ColVariances()
	if !almostEq(v[0], 1) || !almostEq(v[1], 0) {
		t.Fatalf("variances = %v", v)
	}
}

func TestEmptyMatrixReductions(t *testing.T) {
	m := NewDense(0, 3)
	if len(m.ColMeans()) != 3 || m.Sum() != 0 {
		t.Fatal("empty reductions wrong")
	}
}

func TestCenteringPreservesDifferencesProperty(t *testing.T) {
	// Column-centering must not change differences between rows — the
	// property that makes authenticity clustering distances meaningful.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 2+r.Intn(6), 1+r.Intn(6)
		m := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		before := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			copy(before.Row(i), m.Row(i))
		}
		m.CenterColumns()
		for a := 0; a < rows; a++ {
			for b := 0; b < rows; b++ {
				for j := 0; j < cols; j++ {
					d0 := before.At(a, j) - before.At(b, j)
					d1 := m.At(a, j) - m.At(b, j)
					if math.Abs(d0-d1) > 1e-9 {
						t.Fatal("centering changed row differences")
					}
				}
			}
		}
	}
}
