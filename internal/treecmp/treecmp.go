// Package treecmp quantifies how similar two dendrograms over the same
// leaves are. The paper validates its cuisine trees against geography by
// visual inspection (Sec. VII); this package makes that comparison
// measurable with four standard statistics:
//
//   - CopheneticCorrelation: Pearson r between the trees' cophenetic
//     distance vectors (also usable tree-vs-raw-distances).
//   - BakersGamma: Spearman rank correlation of the cophenetic vectors
//     (Baker 1974), robust to monotone height differences.
//   - RobinsonFoulds: the count of bipartitions present in exactly one
//     tree, normalized to [0, 1].
//   - FowlkesMallows: B_k similarity of the two trees' k-cluster cuts.
package treecmp

import (
	"fmt"
	"math"
	"sort"

	"cuisines/internal/distance"
	"cuisines/internal/hac"
)

// CopheneticCorrelation returns the Pearson correlation between two
// condensed distance vectors over the same observations.
func CopheneticCorrelation(a, b *distance.Condensed) (float64, error) {
	if a.N() != b.N() {
		return 0, fmt.Errorf("treecmp: size mismatch %d vs %d", a.N(), b.N())
	}
	return pearson(a.Values(), b.Values())
}

func pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("treecmp: length mismatch")
	}
	n := float64(len(x))
	if n == 0 {
		return 0, fmt.Errorf("treecmp: empty vectors")
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("treecmp: constant vector has undefined correlation")
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// BakersGamma returns the Spearman rank correlation between the two
// condensed cophenetic vectors.
func BakersGamma(a, b *distance.Condensed) (float64, error) {
	if a.N() != b.N() {
		return 0, fmt.Errorf("treecmp: size mismatch %d vs %d", a.N(), b.N())
	}
	ra := ranks(a.Values())
	rb := ranks(b.Values())
	return pearson(ra, rb)
}

// ranks returns fractional ranks (ties averaged).
func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	out := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && x[idx[j]] == x[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j)
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

// RobinsonFoulds returns the normalized Robinson-Foulds distance between
// two trees over the same leaf set: the fraction of non-trivial
// bipartitions present in exactly one tree (0 = identical topology,
// 1 = no shared splits).
func RobinsonFoulds(a, b *hac.Tree) (float64, error) {
	if a.N() != b.N() {
		return 0, fmt.Errorf("treecmp: leaf count mismatch %d vs %d", a.N(), b.N())
	}
	sa := bipartitions(a)
	sb := bipartitions(b)
	sym := 0
	for k := range sa {
		if !sb[k] {
			sym++
		}
	}
	for k := range sb {
		if !sa[k] {
			sym++
		}
	}
	total := len(sa) + len(sb)
	if total == 0 {
		return 0, nil
	}
	return float64(sym) / float64(total), nil
}

// bipartitions returns the set of non-trivial splits of a rooted binary
// tree, each encoded canonically as a bitset string over leaf indices
// (complement-normalized so the side containing leaf 0 is stored).
func bipartitions(t *hac.Tree) map[string]bool {
	n := t.N()
	out := make(map[string]bool)
	var walk func(node *hac.Node) []bool
	walk = func(node *hac.Node) []bool {
		mask := make([]bool, n)
		if node.IsLeaf() {
			mask[node.Leaf] = true
			return mask
		}
		l := walk(node.Left)
		r := walk(node.Right)
		for i := range mask {
			mask[i] = l[i] || r[i]
		}
		size := 0
		for _, b := range mask {
			if b {
				size++
			}
		}
		if size >= 2 && size <= n-2 {
			out[canonicalMask(mask)] = true
		}
		return mask
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return out
}

func canonicalMask(mask []bool) string {
	// Normalize to the side containing leaf 0.
	flip := !mask[0]
	b := make([]byte, len(mask))
	for i, v := range mask {
		if v != flip { // v XOR flip == v != flip for bools
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// FowlkesMallows returns B_k for the two trees cut into k clusters:
// TP / sqrt((TP+FP)(TP+FN)) over leaf pairs, in [0, 1].
func FowlkesMallows(a, b *hac.Tree, k int) (float64, error) {
	if a.N() != b.N() {
		return 0, fmt.Errorf("treecmp: leaf count mismatch")
	}
	ca, err := a.CutK(k)
	if err != nil {
		return 0, err
	}
	cb, err := b.CutK(k)
	if err != nil {
		return 0, err
	}
	return pairSimilarity(ca, cb)
}

func pairSimilarity(ca, cb []int) (float64, error) {
	n := len(ca)
	var tp, fp, fn float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameA := ca[i] == ca[j]
			sameB := cb[i] == cb[j]
			switch {
			case sameA && sameB:
				tp++
			case sameA && !sameB:
				fn++
			case !sameA && sameB:
				fp++
			}
		}
	}
	den := math.Sqrt((tp + fp) * (tp + fn))
	if den == 0 {
		return 0, nil
	}
	return tp / den, nil
}

// Report aggregates all similarity statistics between a candidate tree
// and a reference tree.
type Report struct {
	Cophenetic     float64
	BakersGamma    float64
	RobinsonFoulds float64
	// FowlkesMallows holds B_k for the ks requested, in request order.
	// It is a slice, not a map, so one Report has one encoding.
	FowlkesMallows []BkScore
}

// BkScore is one Fowlkes-Mallows score: B_k of the trees cut into K clusters.
type BkScore struct {
	K int
	B float64
}

// Bk returns B_k for k, or NaN if k was not requested.
func (r *Report) Bk(k int) float64 {
	for _, b := range r.FowlkesMallows {
		if b.K == k {
			return b.B
		}
	}
	return math.NaN()
}

// Compare runs every statistic between candidate and reference trees.
func Compare(candidate, reference *hac.Tree, bks []int) (*Report, error) {
	cc := candidate.Cophenetic()
	cr := reference.Cophenetic()
	coph, err := CopheneticCorrelation(cc, cr)
	if err != nil {
		return nil, err
	}
	gamma, err := BakersGamma(cc, cr)
	if err != nil {
		return nil, err
	}
	rf, err := RobinsonFoulds(candidate, reference)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Cophenetic:     coph,
		BakersGamma:    gamma,
		RobinsonFoulds: rf,
		FowlkesMallows: make([]BkScore, len(bks)),
	}
	for i, k := range bks {
		bk, err := FowlkesMallows(candidate, reference, k)
		if err != nil {
			return nil, err
		}
		rep.FowlkesMallows[i] = BkScore{K: k, B: bk}
	}
	return rep, nil
}
