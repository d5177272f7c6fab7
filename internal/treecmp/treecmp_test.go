package treecmp

import (
	"math"
	"testing"

	"cuisines/internal/distance"
	"cuisines/internal/hac"
	"cuisines/internal/matrix"
	"cuisines/internal/rng"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// treeFrom builds an average-linkage tree from points on a line.
func treeFrom(t *testing.T, points []float64) *hac.Tree {
	t.Helper()
	m := matrix.NewDense(len(points), 1)
	for i, p := range points {
		m.Set(i, 0, p)
	}
	lk, err := hac.Cluster(distance.Pdist(m, distance.Euclidean), hac.Average)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hac.BuildTree(lk, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestCopheneticCorrelationIdentity(t *testing.T) {
	tree := treeFrom(t, []float64{0, 1, 5, 6, 20})
	c := tree.Cophenetic()
	r, err := CopheneticCorrelation(c, c)
	if err != nil || !almostEq(r, 1) {
		t.Fatalf("self correlation = %v, %v", r, err)
	}
}

func TestCopheneticCorrelationSizeMismatch(t *testing.T) {
	a := treeFrom(t, []float64{0, 1, 2}).Cophenetic()
	b := treeFrom(t, []float64{0, 1, 2, 3}).Cophenetic()
	if _, err := CopheneticCorrelation(a, b); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestCopheneticSimilarBeatsDifferent(t *testing.T) {
	base := treeFrom(t, []float64{0, 1, 5, 6, 20, 21})
	similar := treeFrom(t, []float64{0, 1.2, 5.1, 6.3, 19, 22})
	different := treeFrom(t, []float64{0, 20, 1, 21, 5, 22})
	rSim, err := CopheneticCorrelation(base.Cophenetic(), similar.Cophenetic())
	if err != nil {
		t.Fatal(err)
	}
	rDif, err := CopheneticCorrelation(base.Cophenetic(), different.Cophenetic())
	if err != nil {
		t.Fatal(err)
	}
	if rSim <= rDif {
		t.Fatalf("similar tree r=%v should beat shuffled r=%v", rSim, rDif)
	}
}

func TestBakersGammaInvariantToMonotoneHeights(t *testing.T) {
	// A monotone transform of the pairwise distances preserves
	// single-linkage merge order, hence cophenetic ranks, hence gamma = 1.
	pts := []float64{0, 1, 4, 9, 16}
	m := matrix.NewDense(len(pts), 1)
	for i, p := range pts {
		m.Set(i, 0, p)
	}
	d := distance.Pdist(m, distance.Euclidean)
	d2 := d.Clone()
	for i, v := range d2.Values() {
		d2.Values()[i] = v * v // strictly monotone on distances
	}
	mkTree := func(c *distance.Condensed) *hac.Tree {
		lk, err := hac.Cluster(c, hac.Single)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := hac.BuildTree(lk, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	a, b := mkTree(d), mkTree(d2)
	gamma, err := BakersGamma(a.Cophenetic(), b.Cophenetic())
	if err != nil {
		t.Fatal(err)
	}
	if gamma < 0.999 {
		t.Fatalf("gamma = %v under monotone distance transform", gamma)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEq(r[i], want[i]) {
			t.Fatalf("ranks = %v", r)
		}
	}
}

func TestRobinsonFouldsIdentityAndDisjoint(t *testing.T) {
	a := treeFrom(t, []float64{0, 1, 5, 6, 20, 21})
	rf, err := RobinsonFoulds(a, a)
	if err != nil || rf != 0 {
		t.Fatalf("self RF = %v, %v", rf, err)
	}
	// A tree pairing the same leaves differently: swap extremes.
	b := treeFrom(t, []float64{0, 21, 5, 1, 20, 6})
	rf, err = RobinsonFoulds(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rf <= 0 || rf > 1 {
		t.Fatalf("shuffled RF = %v", rf)
	}
}

func TestRobinsonFouldsMismatch(t *testing.T) {
	a := treeFrom(t, []float64{0, 1, 2})
	b := treeFrom(t, []float64{0, 1, 2, 3})
	if _, err := RobinsonFoulds(a, b); err == nil {
		t.Fatal("leaf mismatch accepted")
	}
}

func TestFowlkesMallowsIdentity(t *testing.T) {
	// Distinct gaps everywhere: tied merge heights would make CutK
	// over-split (documented behaviour) and void the identity check.
	a := treeFrom(t, []float64{0, 1, 5, 6.5, 20, 22.5})
	for _, k := range []int{2, 3, 4} {
		bk, err := FowlkesMallows(a, a, k)
		if err != nil || !almostEq(bk, 1) {
			t.Fatalf("self B_%d = %v, %v", k, bk, err)
		}
	}
}

func TestFowlkesMallowsRange(t *testing.T) {
	a := treeFrom(t, []float64{0, 1, 5, 6, 20, 21})
	b := treeFrom(t, []float64{0, 20, 1, 21, 5, 22})
	for _, k := range []int{2, 3} {
		bk, err := FowlkesMallows(a, b, k)
		if err != nil {
			t.Fatal(err)
		}
		if bk < 0 || bk > 1 {
			t.Fatalf("B_%d = %v out of range", k, bk)
		}
	}
	if _, err := FowlkesMallows(a, b, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestCompareAggregates(t *testing.T) {
	a := treeFrom(t, []float64{0, 1, 5, 6, 20, 21})
	b := treeFrom(t, []float64{0, 1.5, 5, 6.5, 19, 23})
	rep, err := Compare(a, b, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cophenetic <= 0.8 {
		t.Fatalf("cophenetic = %v for near-identical trees", rep.Cophenetic)
	}
	if len(rep.FowlkesMallows) != 2 || rep.FowlkesMallows[0].K != 2 || rep.FowlkesMallows[1].K != 3 {
		t.Fatalf("B_k list = %v", rep.FowlkesMallows)
	}
	for _, b := range rep.FowlkesMallows {
		if got := rep.Bk(b.K); got != b.B {
			t.Fatalf("Bk(%d) = %v, want %v", b.K, got, b.B)
		}
	}
	if !math.IsNaN(rep.Bk(4)) {
		t.Fatalf("Bk(4) = %v for an unrequested k, want NaN", rep.Bk(4))
	}
	if rep.RobinsonFoulds != 0 {
		t.Fatalf("RF = %v for same topology", rep.RobinsonFoulds)
	}
}

func TestPearsonConstantVectorErrors(t *testing.T) {
	if _, err := pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant vector accepted")
	}
	if _, err := pearson(nil, nil); err == nil {
		t.Fatal("empty vectors accepted")
	}
}

func TestCopheneticCorrelationRangeProperty(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(8)
		mk := func() *hac.Tree {
			m := matrix.NewDense(n, 2)
			for i := 0; i < n; i++ {
				m.Set(i, 0, r.NormFloat64()*5)
				m.Set(i, 1, r.NormFloat64()*5)
			}
			lk, _ := hac.Cluster(distance.Pdist(m, distance.Euclidean), hac.Complete)
			tree, _ := hac.BuildTree(lk, nil)
			return tree
		}
		a, b := mk(), mk()
		rep, err := Compare(a, b, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cophenetic < -1-1e-9 || rep.Cophenetic > 1+1e-9 {
			t.Fatalf("cophenetic out of range: %v", rep.Cophenetic)
		}
		if rep.BakersGamma < -1-1e-9 || rep.BakersGamma > 1+1e-9 {
			t.Fatalf("gamma out of range: %v", rep.BakersGamma)
		}
		if rep.RobinsonFoulds < 0 || rep.RobinsonFoulds > 1 {
			t.Fatalf("RF out of range: %v", rep.RobinsonFoulds)
		}
	}
}
