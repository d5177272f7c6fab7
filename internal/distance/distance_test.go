package distance

import (
	"math"
	"math/rand"
	"testing"

	"cuisines/internal/matrix"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEuclideanKnown(t *testing.T) {
	if d := Euclidean.Between([]float64{0, 0}, []float64{3, 4}); !almostEq(d, 5) {
		t.Fatalf("euclidean = %v", d)
	}
}

func TestManhattanKnown(t *testing.T) {
	if d := Manhattan.Between([]float64{1, 2}, []float64{4, -2}); !almostEq(d, 7) {
		t.Fatalf("manhattan = %v", d)
	}
}

func TestCosineKnown(t *testing.T) {
	if d := Cosine.Between([]float64{1, 0}, []float64{0, 1}); !almostEq(d, 1) {
		t.Fatalf("orthogonal cosine = %v", d)
	}
	if d := Cosine.Between([]float64{2, 2}, []float64{1, 1}); !almostEq(d, 0) {
		t.Fatalf("parallel cosine = %v", d)
	}
	if d := Cosine.Between([]float64{1, 1}, []float64{-1, -1}); !almostEq(d, 2) {
		t.Fatalf("antiparallel cosine = %v", d)
	}
}

func TestCosineZeroVectors(t *testing.T) {
	zero := []float64{0, 0}
	if d := Cosine.Between(zero, zero); d != 0 {
		t.Fatalf("cosine(0,0) = %v", d)
	}
	if d := Cosine.Between(zero, []float64{1, 0}); d != 1 {
		t.Fatalf("cosine(0,x) = %v", d)
	}
}

func TestJaccardKnown(t *testing.T) {
	x := []float64{1, 1, 0, 0}
	y := []float64{1, 0, 1, 0}
	// union = 3 coords, differing = 2 -> 2/3
	if d := Jaccard.Between(x, y); !almostEq(d, 2.0/3) {
		t.Fatalf("jaccard = %v", d)
	}
	if d := Jaccard.Between(x, x); d != 0 {
		t.Fatalf("jaccard identity = %v", d)
	}
	if d := Jaccard.Between([]float64{0, 0}, []float64{0, 0}); d != 0 {
		t.Fatalf("jaccard empty = %v", d)
	}
	// membership, not magnitude
	if d := Jaccard.Between([]float64{5, 0}, []float64{2, 0}); d != 0 {
		t.Fatalf("jaccard should ignore magnitudes: %v", d)
	}
}

func TestHammingKnown(t *testing.T) {
	if d := Hamming.Between([]float64{1, 2, 3, 4}, []float64{1, 0, 3, 0}); !almostEq(d, 0.5) {
		t.Fatalf("hamming = %v", d)
	}
	if d := Hamming.Between(nil, nil); d != 0 {
		t.Fatalf("hamming nil = %v", d)
	}
}

func TestCorrelationKnown(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{2, 4, 6}
	if d := Correlation.Between(x, y); !almostEq(d, 0) {
		t.Fatalf("perfectly correlated = %v", d)
	}
	z := []float64{3, 2, 1}
	if d := Correlation.Between(x, z); !almostEq(d, 2) {
		t.Fatalf("anticorrelated = %v", d)
	}
	c := []float64{5, 5, 5}
	if d := Correlation.Between(c, c); d != 0 {
		t.Fatalf("constant self = %v", d)
	}
	if d := Correlation.Between(c, []float64{5, 5, 6}); d != 1 {
		t.Fatalf("constant vs varying = %v", d)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Euclidean.Between([]float64{1}, []float64{1, 2})
}

func TestMetricNamesRoundTrip(t *testing.T) {
	for _, m := range []Metric{Euclidean, Cosine, Jaccard, Hamming, Manhattan, Correlation} {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: %v %v", m, got, err)
		}
	}
	if _, err := ParseMetric("chebyshev"); err == nil {
		t.Fatal("unknown metric should error")
	}
	for _, alias := range []string{"l1", "l2", "manhattan"} {
		if _, err := ParseMetric(alias); err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
	}
}

func TestCondensedIndexing(t *testing.T) {
	c := NewCondensed(4)
	v := 1.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			c.Set(i, j, v)
			v++
		}
	}
	if c.Len() != 6 {
		t.Fatalf("len = %d", c.Len())
	}
	// Symmetry of accessors and zero diagonal.
	for i := 0; i < 4; i++ {
		if c.At(i, i) != 0 {
			t.Fatal("diagonal not zero")
		}
		for j := 0; j < 4; j++ {
			if !almostEq(c.At(i, j), c.At(j, i)) {
				t.Fatal("asymmetric accessor")
			}
		}
	}
	// scipy layout: d(0,1), d(0,2), d(0,3), d(1,2), d(1,3), d(2,3)
	want := []float64{1, 2, 3, 4, 5, 6}
	for i, w := range want {
		if c.Values()[i] != w {
			t.Fatalf("layout mismatch: %v", c.Values())
		}
	}
}

func TestPdistMatchesDirect(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{0, 0}, {3, 4}, {6, 8},
	})
	c := Pdist(m, Euclidean)
	if !almostEq(c.At(0, 1), 5) || !almostEq(c.At(0, 2), 10) || !almostEq(c.At(1, 2), 5) {
		t.Fatalf("pdist = %v", c.Values())
	}
}

func TestArgClosest(t *testing.T) {
	m := matrix.FromRows([][]float64{{0}, {10}, {1}})
	c := Pdist(m, Euclidean)
	j, d := c.ArgClosest(0)
	if j != 2 || !almostEq(d, 1) {
		t.Fatalf("ArgClosest = %d, %v", j, d)
	}
}

func TestMaxMean(t *testing.T) {
	m := matrix.FromRows([][]float64{{0}, {1}, {3}})
	c := Pdist(m, Euclidean)
	if !almostEq(c.Max(), 3) {
		t.Fatalf("max = %v", c.Max())
	}
	if (&Condensed{n: 1}).Max() != 0 {
		t.Fatal("singleton stats nonzero")
	}
}

// --- metric axiom properties ----------------------------------------------

func randVec(r *rand.Rand, dim int, binary bool) []float64 {
	v := make([]float64, dim)
	for i := range v {
		if binary {
			v[i] = float64(r.Intn(2))
		} else {
			v[i] = r.NormFloat64()
		}
	}
	return v
}

func TestMetricAxiomsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	metrics := []struct {
		m        Metric
		binary   bool
		triangle bool // true metrics obey the triangle inequality
	}{
		{Euclidean, false, true},
		{Manhattan, false, true},
		{Jaccard, true, true},
		{Hamming, true, true},
		{Cosine, false, false},
		{Correlation, false, false},
	}
	for _, tc := range metrics {
		for trial := 0; trial < 300; trial++ {
			dim := 1 + r.Intn(10)
			x := randVec(r, dim, tc.binary)
			y := randVec(r, dim, tc.binary)
			z := randVec(r, dim, tc.binary)
			dxy := tc.m.Between(x, y)
			dyx := tc.m.Between(y, x)
			if dxy < -1e-12 {
				t.Fatalf("%v: negative distance %v", tc.m, dxy)
			}
			if !almostEq(dxy, dyx) {
				t.Fatalf("%v: asymmetric %v vs %v", tc.m, dxy, dyx)
			}
			if d := tc.m.Between(x, x); math.Abs(d) > 1e-9 {
				t.Fatalf("%v: d(x,x) = %v", tc.m, d)
			}
			if tc.triangle {
				dxz := tc.m.Between(x, z)
				dzy := tc.m.Between(z, y)
				if dxy > dxz+dzy+1e-9 {
					t.Fatalf("%v: triangle violated: %v > %v + %v", tc.m, dxy, dxz, dzy)
				}
			}
		}
	}
}

func TestPdistSymmetricPositiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n, dim := 2+r.Intn(8), 1+r.Intn(6)
		m := matrix.NewDense(n, dim)
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		for _, metric := range []Metric{Euclidean, Cosine, Manhattan} {
			c := Pdist(m, metric)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if c.At(i, j) < -1e-12 {
						t.Fatalf("negative pdist entry")
					}
					if !almostEq(c.At(i, j), c.At(j, i)) {
						t.Fatalf("pdist asymmetric")
					}
				}
			}
		}
	}
}

// TestPdistWorkersEquivalence checks that the chunked parallel pdist is
// byte-identical to the sequential one for every metric and worker count.
func TestPdistWorkersEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := matrix.NewDense(37, 19)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			// Mix in zeros so the boolean metrics exercise their edge
			// conventions too.
			if r.Float64() < 0.3 {
				continue
			}
			m.Set(i, j, r.NormFloat64())
		}
	}
	for _, metric := range []Metric{Euclidean, Cosine, Jaccard, Hamming, Manhattan, Correlation} {
		seq := PdistWorkers(m, metric, 1)
		for _, workers := range []int{2, 3, 8, 0} {
			par := PdistWorkers(m, metric, workers)
			if len(seq.Values()) != len(par.Values()) {
				t.Fatalf("%v workers=%d: length mismatch", metric, workers)
			}
			for k, v := range seq.Values() {
				if par.Values()[k] != v {
					t.Fatalf("%v workers=%d: entry %d = %v, sequential %v", metric, workers, k, par.Values()[k], v)
				}
			}
		}
	}
}

// TestUnindexRoundTrip checks that unindex is the exact inverse of index
// for every offset — the property the chunked pdist's cursor decoding
// rests on.
func TestUnindexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 26, 37, 256} {
		c := NewCondensed(n)
		for k := 0; k < c.Len(); k++ {
			i, j := c.unindex(k)
			if i < 0 || i >= j || j >= n {
				t.Fatalf("n=%d: unindex(%d) = (%d,%d) out of order", n, k, i, j)
			}
			if got := c.index(i, j); got != k {
				t.Fatalf("n=%d: index(unindex(%d)) = %d", n, k, got)
			}
		}
	}
}
