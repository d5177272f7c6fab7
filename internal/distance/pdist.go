package distance

import (
	"fmt"
	"math"

	"cuisines/internal/matrix"
	"cuisines/internal/parallel"
)

// Condensed is a condensed pairwise distance vector over n observations,
// exactly like scipy's pdist output: distances d(i,j) for i < j stored
// row-major, length n*(n-1)/2.
type Condensed struct {
	n int
	d []float64
}

// NewCondensed allocates a zero condensed matrix over n observations.
func NewCondensed(n int) *Condensed {
	if n < 0 {
		panic("distance: negative n")
	}
	return &Condensed{n: n, d: make([]float64, n*(n-1)/2)}
}

// N returns the number of observations.
func (c *Condensed) N() int { return c.n }

// Len returns the number of stored pairs, n*(n-1)/2.
func (c *Condensed) Len() int { return len(c.d) }

// index maps (i, j), i != j, to the condensed offset.
func (c *Condensed) index(i, j int) int {
	if i == j || i < 0 || j < 0 || i >= c.n || j >= c.n {
		panic(fmt.Sprintf("distance: bad pair (%d,%d) for n=%d", i, j, c.n))
	}
	if i > j {
		i, j = j, i
	}
	// offset of row i block: sum_{k<i} (n-1-k) = i*n - i*(i+1)/2 - i ... use
	// the standard closed form.
	return i*(2*c.n-i-1)/2 + (j - i - 1)
}

// rowOffset is the condensed offset of pair (i, i+1) — where row i's
// block starts.
func (c *Condensed) rowOffset(i int) int {
	return i * (2*c.n - i - 1) / 2
}

// unindex maps a condensed offset back to its (i, j) pair, i < j — the
// inverse of index. Row i's block starts at rowOffset(i), a decreasing
// quadratic in i, so i is recovered by solving the quadratic and nudging
// for float rounding.
func (c *Condensed) unindex(k int) (int, int) {
	if k < 0 || k >= len(c.d) {
		panic(fmt.Sprintf("distance: offset %d out of range %d", k, len(c.d)))
	}
	tn := 2*c.n - 1
	i := int((float64(tn) - math.Sqrt(float64(tn*tn-8*k))) / 2)
	for i > 0 && c.rowOffset(i) > k {
		i--
	}
	for c.rowOffset(i+1) <= k {
		i++
	}
	return i, i + 1 + (k - c.rowOffset(i))
}

// At returns d(i, j); d(i, i) is 0.
func (c *Condensed) At(i, j int) float64 {
	if i == j {
		if i < 0 || i >= c.n {
			panic(fmt.Sprintf("distance: index %d out of range %d", i, c.n))
		}
		return 0
	}
	return c.d[c.index(i, j)]
}

// Set assigns d(i, j) = d(j, i) = v. Setting the diagonal panics.
func (c *Condensed) Set(i, j int, v float64) {
	c.d[c.index(i, j)] = v
}

// Values returns the underlying condensed vector (aliased, scipy layout).
func (c *Condensed) Values() []float64 { return c.d }

// Clone returns a deep copy.
func (c *Condensed) Clone() *Condensed {
	out := NewCondensed(c.n)
	copy(out.d, c.d)
	return out
}

// Pdist computes the condensed pairwise distances between the rows of m
// under the metric — the scipy pdist call at the heart of Sec. VI.A. It
// uses every available core; see PdistWorkers for the knob.
func Pdist(m *matrix.Dense, metric Metric) *Condensed {
	return PdistWorkers(m, metric, 0)
}

// PdistWorkers is Pdist with an explicit worker count (<= 0 means
// GOMAXPROCS, 1 forces the sequential path). The condensed vector is
// split into equal contiguous chunks of cells — not rows, whose
// triangular lengths would leave the chunks unbalanced — and each worker
// walks its chunk, mapping the first offset back to its (i, j) pair and
// advancing incrementally from there. Every cell is a pure function of
// two matrix rows written to its own slot, so the result is
// byte-identical to the sequential computation for any worker count.
func PdistWorkers(m *matrix.Dense, metric Metric, workers int) *Condensed {
	n := m.Rows()
	c := NewCondensed(n)
	// Hoist the row extraction out of the O(n^2) inner loop: Row performs
	// a bounds check and slice construction per call, which the pure
	// metric kernels don't amortize.
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	parallel.ForChunks(len(c.d), workers, func(lo, hi int) {
		i, j := c.unindex(lo)
		for k := lo; k < hi; k++ {
			c.d[k] = metric.Between(rows[i], rows[j])
			if j++; j == n {
				i++
				j = i + 1
			}
		}
	})
	return c
}

// ArgClosest returns, for observation i, the index j != i minimizing
// d(i, j), and that distance. It panics if n < 2.
func (c *Condensed) ArgClosest(i int) (int, float64) {
	if c.n < 2 {
		panic("distance: ArgClosest needs n >= 2")
	}
	best := -1
	bestD := 0.0
	for j := 0; j < c.n; j++ {
		if j == i {
			continue
		}
		d := c.At(i, j)
		if best == -1 || d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

// Max returns the largest stored distance (0 for n < 2).
func (c *Condensed) Max() float64 {
	max := 0.0
	for _, v := range c.d {
		if v > max {
			max = v
		}
	}
	return max
}
