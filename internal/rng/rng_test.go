package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if n <= 8 && len(seen) != n {
			t.Fatalf("Intn(%d) covered only %d values in 2000 draws", n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolRate(t *testing.T) {
	r := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(31)
	c1 := parent.Fork()
	c2 := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked children produced %d/100 identical outputs", same)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(37)
	for _, tc := range []struct{ n, k int }{{10, 3}, {100, 50}, {5, 5}, {5, 9}, {7, 0}} {
		s := r.SampleDistinct(tc.n, tc.k)
		wantLen := tc.k
		if tc.k >= tc.n {
			wantLen = tc.n
		}
		if tc.k <= 0 {
			wantLen = 0
		}
		if len(s) != wantLen {
			t.Fatalf("SampleDistinct(%d,%d) length %d want %d", tc.n, tc.k, len(s), wantLen)
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("SampleDistinct(%d,%d) out-of-range value %d", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("SampleDistinct(%d,%d) duplicate value %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctUniform(t *testing.T) {
	r := New(41)
	counts := make([]int, 6)
	for i := 0; i < 30000; i++ {
		for _, v := range r.SampleDistinct(6, 2) {
			counts[v]++
		}
	}
	want := 30000.0 * 2 / 6
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("element %d drawn %d times, want ~%v", i, c, want)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(43)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight element chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	r := New(47)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.WeightedChoice([]float64{0, 0, 0})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("all-zero weights should fall back to uniform, saw %v", seen)
	}
}

// Property: Uint64n(n) < n for arbitrary n > 0.
func TestUint64nBoundProperty(t *testing.T) {
	r := New(61)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
