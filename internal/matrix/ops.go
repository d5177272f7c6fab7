package matrix

// ColMeans returns the mean of each column. Zero rows yield all zeros.
func (m *Dense) ColMeans() []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(m.rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// CenterColumns subtracts each column's mean in place and returns the
// means that were removed. This is the "relative prevalence" construction
// of the authenticity metric: p_i^c = P_i^c - mean over cuisines.
func (m *Dense) CenterColumns() []float64 {
	means := m.ColMeans()
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
	return means
}

// Scale multiplies every element in place.
func (m *Dense) Scale(f float64) {
	for i := range m.data {
		m.data[i] *= f
	}
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v
	}
	return s
}

// SelectColumns returns a new matrix keeping only the listed columns, in
// the given order.
func (m *Dense) SelectColumns(cols []int) *Dense {
	out := NewDense(m.rows, len(cols))
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		for k, j := range cols {
			if j < 0 || j >= m.cols {
				panic("matrix: SelectColumns index out of range")
			}
			orow[k] = row[j]
		}
	}
	return out
}

// SelectRows returns a new matrix keeping only the listed rows, in the
// given order.
func (m *Dense) SelectRows(rows []int) *Dense {
	out := NewDense(len(rows), m.cols)
	for k, i := range rows {
		if i < 0 || i >= m.rows {
			panic("matrix: SelectRows index out of range")
		}
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// ColVariances returns the population variance of each column.
func (m *Dense) ColVariances() []float64 {
	vars := make([]float64, m.cols)
	if m.rows == 0 {
		return vars
	}
	means := m.ColMeans()
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			d := v - means[j]
			vars[j] += d * d
		}
	}
	inv := 1 / float64(m.rows)
	for j := range vars {
		vars[j] *= inv
	}
	return vars
}
