package encode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cuisines/internal/itemset"
)

func TestFitLabelsSortedUnique(t *testing.T) {
	e := FitLabels([]string{"b", "a", "b", "c"})
	if e.Len() != 3 {
		t.Fatalf("len = %d", e.Len())
	}
	want := []string{"a", "b", "c"}
	for i, c := range e.Classes() {
		if c != want[i] {
			t.Fatalf("classes = %v", e.Classes())
		}
	}
}

func TestTransformInverseRoundTrip(t *testing.T) {
	e := FitLabels([]string{"x", "y", "z"})
	for _, c := range e.Classes() {
		i, err := e.Transform(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := e.Inverse(i)
		if err != nil || back != c {
			t.Fatalf("round trip %q -> %d -> %q", c, i, back)
		}
	}
}

func TestTransformUnknownErrors(t *testing.T) {
	e := FitLabels([]string{"x"})
	if _, err := e.Transform("nope"); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := e.Inverse(5); err == nil {
		t.Fatal("out-of-range inverse accepted")
	}
	if _, err := e.Inverse(-1); err == nil {
		t.Fatal("negative inverse accepted")
	}
}

func TestLabelEncoderSortedProperty(t *testing.T) {
	f := func(values []string) bool {
		e := FitLabels(values)
		classes := e.Classes()
		for i := 1; i < len(classes); i++ {
			if classes[i-1] >= classes[i] {
				return false
			}
		}
		// Transform must agree with position.
		for i, c := range classes {
			if j, err := e.Transform(c); err != nil || j != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func pat(sup float64, names ...string) itemset.Pattern {
	return itemset.Pattern{Items: itemset.FromNames(itemset.Ingredient, names...), Support: sup}
}

func TestBuildPatternMatrixBinary(t *testing.T) {
	regions := []string{"A", "B"}
	patterns := [][]itemset.Pattern{
		{pat(0.5, "x"), pat(0.3, "y", "z")},
		{pat(0.4, "x")},
	}
	pm, err := BuildPatternMatrix(regions, patterns, Binary)
	if err != nil {
		t.Fatal(err)
	}
	if pm.X.Rows() != 2 || pm.X.Cols() != 2 {
		t.Fatalf("shape %dx%d", pm.X.Rows(), pm.X.Cols())
	}
	// Vocabulary sorted: "x", "y+z".
	if pm.Vocabulary[0] != "x" || pm.Vocabulary[1] != "y+z" {
		t.Fatalf("vocab = %v", pm.Vocabulary)
	}
	if pm.X.At(0, 0) != 1 || pm.X.At(0, 1) != 1 || pm.X.At(1, 0) != 1 || pm.X.At(1, 1) != 0 {
		t.Fatalf("matrix = %v", pm.X)
	}
	if pm.PatternCount(0) != 2 || pm.PatternCount(1) != 1 {
		t.Fatal("pattern counts wrong")
	}
	if pm.SharedPatterns(0, 1) != 1 {
		t.Fatal("shared patterns wrong")
	}
}

func TestBuildPatternMatrixSupportWeighted(t *testing.T) {
	pm, err := BuildPatternMatrix([]string{"A"}, [][]itemset.Pattern{{pat(0.37, "x")}}, SupportWeighted)
	if err != nil {
		t.Fatal(err)
	}
	if pm.X.At(0, 0) != 0.37 {
		t.Fatalf("support weight = %v", pm.X.At(0, 0))
	}
}

func TestBuildPatternMatrixTFIDF(t *testing.T) {
	regions := []string{"A", "B"}
	patterns := [][]itemset.Pattern{
		{pat(0.5, "shared"), pat(0.5, "only-a")},
		{pat(0.5, "shared")},
	}
	pm, err := BuildPatternMatrix(regions, patterns, TFIDF)
	if err != nil {
		t.Fatal(err)
	}
	iShared, _ := FitLabels(pm.Vocabulary).Transform("shared")
	iOnly, _ := FitLabels(pm.Vocabulary).Transform("only-a")
	// A pattern unique to one cuisine gets more weight than a shared one.
	if pm.X.At(0, iOnly) <= pm.X.At(0, iShared) {
		t.Fatalf("tfidf did not upweight rare pattern: %v vs %v", pm.X.At(0, iOnly), pm.X.At(0, iShared))
	}
	// Shared pattern weight: 0.5 * (ln(2/2)+1) = 0.5.
	if math.Abs(pm.X.At(1, iShared)-0.5) > 1e-9 {
		t.Fatalf("shared tfidf = %v", pm.X.At(1, iShared))
	}
}

func TestBuildPatternMatrixLengthMismatch(t *testing.T) {
	if _, err := BuildPatternMatrix([]string{"A"}, nil, Binary); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestWeightingNames(t *testing.T) {
	for w, want := range map[Weighting]string{Binary: "binary", SupportWeighted: "support", TFIDF: "tfidf", 9: "weighting(9)"} {
		if got := w.String(); got != want {
			t.Errorf("Weighting(%d).String() = %q, want %q", int(w), got, want)
		}
	}
}

func TestDuplicatePatternsDoNotDoubleCount(t *testing.T) {
	// The same pattern twice in one region must not inflate counts or df.
	pm, err := BuildPatternMatrix([]string{"A"}, [][]itemset.Pattern{{pat(0.5, "x"), pat(0.5, "x")}}, Binary)
	if err != nil {
		t.Fatal(err)
	}
	if pm.X.Cols() != 1 || pm.PatternCount(0) != 1 {
		t.Fatal("duplicate pattern double counted")
	}
}

func TestPatternMatrixDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	regions := []string{"A", "B", "C"}
	var patterns [][]itemset.Pattern
	for range regions {
		var ps []itemset.Pattern
		for j := 0; j < 10; j++ {
			ps = append(ps, pat(r.Float64(), string(rune('a'+r.Intn(6)))))
		}
		patterns = append(patterns, ps)
	}
	a, err := BuildPatternMatrix(regions, patterns, Binary)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildPatternMatrix(regions, patterns, Binary)
	if !a.X.Equal(b.X, 0) {
		t.Fatal("non-deterministic matrix")
	}
}
