package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // exactly 10 samples beyond p99.9
		{9999, 99},
		{1000, 99},
		{999, 90},
		{100, 90},
		{40, 75},
		{39, 66},
		{30, 66}, // 10.2 beyond
		{29, 50}, // 9.86 beyond p66: too few
		{20, 50},
		{3, 50}, // nothing qualifies: the median
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestWorkloadTailsFollowTheRule pins each workload's fixed tail to the
// rule at the fewest samples a slow run of its window yields
// (README.md).
func TestWorkloadTailsFollowTheRule(t *testing.T) {
	fewest := map[string]int{"warm-serve": 15000, "cold-analysis": 36, "param-sweep": 40000, "restart-disk": 36, "restart-peer": 36}
	for _, w := range workloads() {
		n, ok := fewest[w.name]
		if !ok {
			t.Fatalf("no sample count for %s", w.name)
		}
		if got := tailPercentile(n); got < w.tailPct {
			t.Errorf("%s: p%g needs more than %d samples (rule gives p%g)", w.name, w.tailPct, n, got)
		}
	}
}

func TestSliceMedians(t *testing.T) {
	// 1000 samples at p90 make ten slices of 100. A burst that slows a
	// quarter of the run, all in its first slices, leaves the medians
	// over slices where the undisturbed slices put them.
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 1 + float64(i%100)/100 // each slice: 1.00 .. 1.99
		if i < 250 {
			lat[i] += 10
		}
	}
	if p50, tail := sliceMedians(lat, 90); math.Abs(p50-1.49) > 1e-9 || math.Abs(tail-1.89) > 1e-9 {
		t.Errorf("sliceMedians = %g, %g; want 1.49, 1.89", p50, tail)
	}
	// Thirty-five samples hold one p66 slice only: the pooled percentiles.
	few := lat[500:535]
	p50, tail := sliceMedians(few, 66)
	s := sortedCopy(few)
	if p50 != percentile(s, 50) || tail != percentile(s, 66) {
		t.Errorf("one slice: %g, %g; want the pooled p50 and p66", p50, tail)
	}
	for _, tc := range []struct {
		p    float64
		want int
	}{{50, 20}, {66, 30}, {90, 100}, {99, 1000}} {
		if got := minSamples(tc.p); got != tc.want {
			t.Errorf("minSamples(%g) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {66, 7}, {90, 9}, {99, 10}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1}, 0, 3, 6}, // two points extrapolate
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for _, c := range []struct{ got, want float64 }{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(c.got-c.want) > 1e-12 {
				t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		cand []float64
		want string
	}{
		{"same", shift(base, 1.01), "same"},
		{"better", shift(base, 0.8), "better"},
		{"worse", shift(base, 1.2), "worse"},
		{"unresolved", []float64{5, 15, 6, 14, 5, 15, 6, 14, 5, 15}, "unresolved"},
	} {
		if got := judge(lower, base, tc.cand).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	higher := metricSpec{Name: "goodput_rps", Better: "higher", Bound: 0.05}
	if got := judge(higher, base, shift(base, 1.2)).verdict; got != "better" {
		t.Errorf("higher-is-better gain judged %s", got)
	}
}
