package hac

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cuisines/internal/distance"
	"cuisines/internal/matrix"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// cond builds a condensed matrix from an upper-triangular list in scipy
// order.
func cond(n int, vals ...float64) *distance.Condensed {
	c := distance.NewCondensed(n)
	copy(c.Values(), vals)
	return c
}

func TestClusterTwoPoints(t *testing.T) {
	lk, err := Cluster(cond(2, 3.5), Single)
	if err != nil {
		t.Fatal(err)
	}
	if len(lk.Merges) != 1 {
		t.Fatalf("merges = %v", lk.Merges)
	}
	m := lk.Merges[0]
	if m.A != 0 || m.B != 1 || !almostEq(m.Height, 3.5) || m.Size != 2 {
		t.Fatalf("merge = %+v", m)
	}
}

func TestClusterSingleObservation(t *testing.T) {
	lk, err := Cluster(distance.NewCondensed(1), Average)
	if err != nil || len(lk.Merges) != 0 {
		t.Fatalf("lk=%v err=%v", lk, err)
	}
	tree, err := BuildTree(lk, []string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() || tree.Label(0) != "only" {
		t.Fatal("single-observation tree wrong")
	}
}

// Known worked example: points on a line at 0, 1, 5.
// d(0,1)=1, d(0,2)=5, d(1,2)=4.
func lineExample() *distance.Condensed { return cond(3, 1, 5, 4) }

func TestSingleLinkageKnown(t *testing.T) {
	lk, _ := Cluster(lineExample(), Single)
	// First merge 0,1 at 1. Then cluster{0,1} with 2 at min(5,4)=4.
	if lk.Merges[0].A != 0 || lk.Merges[0].B != 1 || !almostEq(lk.Merges[0].Height, 1) {
		t.Fatalf("first merge %+v", lk.Merges[0])
	}
	if lk.Merges[1].A != 2 || lk.Merges[1].B != 3 || !almostEq(lk.Merges[1].Height, 4) {
		t.Fatalf("second merge %+v", lk.Merges[1])
	}
}

func TestCompleteLinkageKnown(t *testing.T) {
	lk, _ := Cluster(lineExample(), Complete)
	if !almostEq(lk.Merges[1].Height, 5) {
		t.Fatalf("complete second merge %+v", lk.Merges[1])
	}
}

func TestAverageLinkageKnown(t *testing.T) {
	lk, _ := Cluster(lineExample(), Average)
	if !almostEq(lk.Merges[1].Height, 4.5) {
		t.Fatalf("average second merge %+v", lk.Merges[1])
	}
}

func TestWeightedLinkageKnown(t *testing.T) {
	lk, _ := Cluster(lineExample(), Weighted)
	if !almostEq(lk.Merges[1].Height, 4.5) {
		t.Fatalf("weighted second merge %+v", lk.Merges[1])
	}
}

func TestWardLinkageKnown(t *testing.T) {
	// Ward on euclidean distances of 1-D points 0, 1, 5:
	// merge {0},{1} at 1; then d({0,1},{2}) = sqrt((2*25 + 2*16 - 1)/3)
	// = sqrt(81/3) = sqrt(27).
	lk, _ := Cluster(lineExample(), Ward)
	if !almostEq(lk.Merges[1].Height, math.Sqrt(27)) {
		t.Fatalf("ward second merge %v want %v", lk.Merges[1].Height, math.Sqrt(27))
	}
}

// scipy cross-check: four 2-D points, average linkage.
// pts = [(0,0), (0,1), (4,0), (4,1.5)]
// scipy.cluster.hierarchy.linkage(pdist(pts), 'average') gives
// merges: (0,1)@1.0, (2,3)@1.5, then average of the 4 cross distances.
func TestAverageLinkageScipyCrossCheck(t *testing.T) {
	pts := matrix.FromRows([][]float64{{0, 0}, {0, 1}, {4, 0}, {4, 1.5}})
	d := distance.Pdist(pts, distance.Euclidean)
	lk, _ := Cluster(d, Average)
	if lk.Merges[0].A != 0 || lk.Merges[0].B != 1 || !almostEq(lk.Merges[0].Height, 1) {
		t.Fatalf("merge 0: %+v", lk.Merges[0])
	}
	if lk.Merges[1].A != 2 || lk.Merges[1].B != 3 || !almostEq(lk.Merges[1].Height, 1.5) {
		t.Fatalf("merge 1: %+v", lk.Merges[1])
	}
	want := (d.At(0, 2) + d.At(0, 3) + d.At(1, 2) + d.At(1, 3)) / 4
	if !almostEq(lk.Merges[2].Height, want) {
		t.Fatalf("merge 2 height %v want %v", lk.Merges[2].Height, want)
	}
	if lk.Merges[2].A != 4 || lk.Merges[2].B != 5 || lk.Merges[2].Size != 4 {
		t.Fatalf("merge 2 ids: %+v", lk.Merges[2])
	}
}

func TestBuildTreeStructure(t *testing.T) {
	lk, _ := Cluster(lineExample(), Average)
	tree, err := BuildTree(lk, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Count != 3 || tree.Root.IsLeaf() {
		t.Fatal("root wrong")
	}
	order := tree.LeafOrder()
	if len(order) != 3 {
		t.Fatalf("leaf order %v", order)
	}
	// a and b merged first; they must be adjacent in display order.
	pos := make(map[int]int)
	for i, l := range order {
		pos[l] = i
	}
	if abs(pos[0]-pos[1]) != 1 {
		t.Fatalf("first-merged leaves not adjacent: %v", order)
	}
}

// TestTreeMergesRoundTrip pins the form the tree artifact stores: the
// merges a tree reports, rebuilt through BuildTree, give back the
// linkage's merges and a tree that renders, serializes and measures
// identically.
func TestTreeMergesRoundTrip(t *testing.T) {
	lk, err := Cluster(cond(5, 1, 4, 9, 2, 8, 3, 7, 5, 6, 10), Average)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(lk, []string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tree.Merges()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m != lk.Merges[i] {
			t.Errorf("merge %d: got %+v, want %+v", i, m, lk.Merges[i])
		}
	}
	got, err := BuildTree(&Linkage{N: tree.N(), Merges: ms}, tree.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != tree.N() || got.Newick() != tree.Newick() || got.Render() != tree.Render() {
		t.Errorf("rebuilt tree differs:\n got %s\nwant %s", got.Newick(), tree.Newick())
	}
	// The cophenetic matrix exercises heights and the full topology.
	co, cn := tree.Cophenetic(), got.Cophenetic()
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if co.At(i, j) != cn.At(i, j) {
				t.Errorf("cophenetic (%d,%d): got %v, want %v", i, j, cn.At(i, j), co.At(i, j))
			}
		}
	}
	if _, err := (&Tree{Root: tree.Root.Left, n: tree.N()}).Merges(); err == nil {
		t.Error("a subtree with missing merges reported a full merge list")
	}
}

func TestBuildTreeLabelMismatch(t *testing.T) {
	lk, _ := Cluster(lineExample(), Average)
	if _, err := BuildTree(lk, []string{"a"}); err == nil {
		t.Fatal("label mismatch accepted")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestCutHeight(t *testing.T) {
	lk, _ := Cluster(lineExample(), Single) // merges at 1 and 4
	tree, _ := BuildTree(lk, nil)
	c := tree.CutHeight(2)
	// {0,1} together, {2} apart.
	if c[0] != c[1] || c[0] == c[2] {
		t.Fatalf("cut@2 = %v", c)
	}
	c = tree.CutHeight(0.5)
	if c[0] == c[1] || c[1] == c[2] || c[0] == c[2] {
		t.Fatalf("cut@0.5 = %v", c)
	}
	c = tree.CutHeight(10)
	if c[0] != 0 || c[1] != 0 || c[2] != 0 {
		t.Fatalf("cut@10 = %v", c)
	}
}

func TestCutK(t *testing.T) {
	lk, _ := Cluster(lineExample(), Single)
	tree, _ := BuildTree(lk, nil)
	for k := 1; k <= 3; k++ {
		c, err := tree.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		distinct := make(map[int]bool)
		for _, v := range c {
			distinct[v] = true
		}
		if len(distinct) != k {
			t.Fatalf("CutK(%d) gave %d clusters: %v", k, len(distinct), c)
		}
	}
	if _, err := tree.CutK(0); err == nil {
		t.Fatal("CutK(0) accepted")
	}
	if _, err := tree.CutK(4); err == nil {
		t.Fatal("CutK(4) accepted on n=3")
	}
}

func TestCopheneticKnown(t *testing.T) {
	lk, _ := Cluster(lineExample(), Single)
	tree, _ := BuildTree(lk, []string{"a", "b", "c"})
	coph := tree.Cophenetic()
	if !almostEq(coph.At(0, 1), 1) {
		t.Fatalf("coph(a,b) = %v", coph.At(0, 1))
	}
	if !almostEq(coph.At(0, 2), 4) || !almostEq(coph.At(1, 2), 4) {
		t.Fatalf("coph to c = %v, %v", coph.At(0, 2), coph.At(1, 2))
	}
	h, err := tree.MergeHeightBetween("a", "c")
	if err != nil || !almostEq(h, 4) {
		t.Fatalf("MergeHeightBetween = %v, %v", h, err)
	}
	if _, err := tree.MergeHeightBetween("a", "zzz"); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestMethodNamesRoundTrip(t *testing.T) {
	for _, m := range []Method{Single, Complete, Average, Weighted, Ward} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v", m)
		}
	}
	if _, err := ParseMethod("median"); err == nil {
		t.Fatal("unsupported method accepted")
	}
}

func TestNewick(t *testing.T) {
	lk, _ := Cluster(lineExample(), Single)
	tree, _ := BuildTree(lk, []string{"a", "b", "c d"})
	nw := tree.Newick()
	if !strings.HasSuffix(nw, ";") {
		t.Fatalf("no trailing semicolon: %q", nw)
	}
	if !strings.Contains(nw, "'c d'") {
		t.Fatalf("label with space not quoted: %q", nw)
	}
	if strings.Count(nw, "(") != 2 || strings.Count(nw, ")") != 2 {
		t.Fatalf("wrong nesting: %q", nw)
	}
}

func TestASCIIRender(t *testing.T) {
	lk, _ := Cluster(lineExample(), Single)
	tree, _ := BuildTree(lk, []string{"alpha", "beta", "gamma"})
	out := tree.Render()
	for _, lab := range []string{"alpha", "beta", "gamma"} {
		if !strings.Contains(out, lab) {
			t.Fatalf("missing label %s in:\n%s", lab, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // 3 leaves + 2 scale lines
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.ContainsRune(out, '┐') || !strings.ContainsRune(out, '┘') {
		t.Fatalf("no joints drawn:\n%s", out)
	}
}

// --- properties -------------------------------------------------------------

func randomCondensed(r *rand.Rand, n int) *distance.Condensed {
	// Generate points then take euclidean distances so ward is valid and
	// the triangle inequality holds.
	m := matrix.NewDense(n, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, r.NormFloat64()*5)
		}
	}
	return distance.Pdist(m, distance.Euclidean)
}

func TestLinkageInvariantsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	methods := []Method{Single, Complete, Average, Weighted, Ward}
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(12)
		d := randomCondensed(r, n)
		for _, method := range methods {
			lk, err := Cluster(d, method)
			if err != nil {
				t.Fatal(err)
			}
			if len(lk.Merges) != n-1 {
				t.Fatalf("%v: %d merges for n=%d", method, len(lk.Merges), n)
			}
			// Heights monotone for reducible methods (all of these are).
			if method != Weighted && !lk.IsMonotone() {
				t.Fatalf("%v: heights not monotone: %v", method, lk.Heights())
			}
			// Final merge contains all observations.
			if lk.Merges[n-2].Size != n {
				t.Fatalf("%v: final size %d != %d", method, lk.Merges[n-2].Size, n)
			}
			// Every cluster id used exactly once as a child.
			used := make(map[int]bool)
			for _, m := range lk.Merges {
				if used[m.A] || used[m.B] {
					t.Fatalf("%v: cluster reused: %+v", method, m)
				}
				used[m.A] = true
				used[m.B] = true
				if m.A >= m.B {
					t.Fatalf("%v: A >= B in %+v", method, m)
				}
			}
			tree, err := BuildTree(lk, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(tree.LeafOrder()); got != n {
				t.Fatalf("%v: leaf order covers %d of %d", method, got, n)
			}
		}
	}
}

func TestSingleLinkageEqualsMSTProperty(t *testing.T) {
	// Single-linkage merge heights must equal the sorted edge weights of
	// the minimum spanning tree (classic equivalence).
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(10)
		d := randomCondensed(r, n)
		lk, _ := Cluster(d, Single)

		// Prim's MST.
		inTree := make([]bool, n)
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		inTree[0] = true
		for j := 1; j < n; j++ {
			dist[j] = d.At(0, j)
		}
		var mst []float64
		for e := 0; e < n-1; e++ {
			best, bd := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				if !inTree[j] && dist[j] < bd {
					best, bd = j, dist[j]
				}
			}
			mst = append(mst, bd)
			inTree[best] = true
			for j := 0; j < n; j++ {
				if !inTree[j] && d.At(best, j) < dist[j] {
					dist[j] = d.At(best, j)
				}
			}
		}
		// Compare sorted.
		hs := lk.Heights()
		sortFloats(mst)
		sortFloats(hs)
		for i := range hs {
			if !almostEq(hs[i], mst[i]) {
				t.Fatalf("single-linkage heights %v != MST weights %v", hs, mst)
			}
		}
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func TestCopheneticUltrametricProperty(t *testing.T) {
	// Cophenetic distances form an ultrametric:
	// d(a,c) <= max(d(a,b), d(b,c)) for all triples.
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(10)
		d := randomCondensed(r, n)
		for _, method := range []Method{Single, Complete, Average, Ward} {
			lk, _ := Cluster(d, method)
			tree, _ := BuildTree(lk, nil)
			coph := tree.Cophenetic()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					for c := 0; c < n; c++ {
						if coph.At(a, c) > math.Max(coph.At(a, b), coph.At(b, c))+1e-9 {
							t.Fatalf("%v: ultrametric violated", method)
						}
					}
				}
			}
		}
	}
}

func TestCutKPartitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(10)
		d := randomCondensed(r, n)
		lk, _ := Cluster(d, Average)
		tree, _ := BuildTree(lk, nil)
		for k := 1; k <= n; k++ {
			c, err := tree.CutK(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(c) != n {
				t.Fatalf("assignment length %d", len(c))
			}
			// Cluster ids form 0..m-1 contiguous.
			seen := make(map[int]bool)
			maxID := -1
			for _, v := range c {
				seen[v] = true
				if v > maxID {
					maxID = v
				}
			}
			if len(seen) != maxID+1 {
				t.Fatalf("non-contiguous cluster ids: %v", c)
			}
		}
	}
}
