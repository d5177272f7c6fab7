package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder lists the percentiles a workload may report as its tail,
// highest first, in tenths of a percent.
var tailLadder = []int{999, 990, 900, 750, 660, 500}

// rank is the 1-based nearest-rank position of the p-th percentile
// among n samples, in integer arithmetic so p99.9 of 10000 samples is
// rank 9990 exactly.
func rank(n int, p float64) int {
	tenths := int(math.Round(p * 10))
	return max(1, min((tenths*n+999)/1000, n))
}

// tailPercentile applies the tail rule to a run of n samples: the
// highest ladder percentile with at least ten samples beyond it. Each
// workload fixes its tail at the value this gives for the fewest
// samples a slow run of it yields, so runs stay comparable; a run too
// short to support that percentile is reported with a warning.
func tailPercentile(n int) float64 {
	for _, tenths := range tailLadder {
		p := float64(tenths) / 10
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// maxSlices is how many consecutive slices of a run's latencies p50_ms
// and tail_ms take their median over. A burst of contention from other
// tenants of a shared host then moves only the slices it falls in: on a
// two-vCPU guest one such burst lifted a whole warm-serve run's p90
// from 0.45 ms to 2.1 ms, and the median slice's p90 to 0.48 ms.
const maxSlices = 10

// sliceMedians splits lat, in send order, into as many consecutive
// slices as still leave ten samples beyond the tail percentile in each,
// at most maxSlices, and returns the medians over the slices of each
// slice's p50 and tail percentile.
func sliceMedians(lat []float64, tail float64) (p50, tailMS float64) {
	k := max(1, min(maxSlices, len(lat)/minSamples(tail)))
	var p50s, tails []float64
	for i := range k {
		s := sortedCopy(lat[i*len(lat)/k : (i+1)*len(lat)/k])
		p50s = append(p50s, percentile(s, 50))
		tails = append(tails, percentile(s, tail))
	}
	return median(p50s), median(tails)
}

// minSamples is the fewest samples that leave ten beyond the p-th
// percentile (p below 100).
func minSamples(p float64) int {
	n := 1
	for n-rank(n, p) < 10 {
		n++
	}
	return n
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" default), so spreads computed here match that definition.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	q := make([]float64, n-1)
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, ld-1))
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// median of xs (interpolated between the middle pair for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
