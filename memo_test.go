package cuisines

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestClosestCuisineMemoized covers the per-request facade fix: repeated
// calls must return identical results while sharing one cophenetic
// matrix per figure instead of re-deriving O(n²) state every call.
func TestClosestCuisineMemoized(t *testing.T) {
	a := getAnalysis(t)
	for _, f := range AllFigures() {
		for _, region := range []string{"UK", "Japanese", "Thai"} {
			first, err := a.ClosestCuisine(f, region)
			if err != nil {
				t.Fatalf("%v/%s: %v", f, region, err)
			}
			for i := 0; i < 3; i++ {
				again, err := a.ClosestCuisine(f, region)
				if err != nil || again != first {
					t.Fatalf("%v/%s call %d: got %q (%v), first was %q", f, region, i, again, err, first)
				}
			}
		}
	}
}

// TestCuisineDistanceMatchesTree pins the memoized lookup to the
// previous implementation: the tree's own merge-height resolution.
func TestCuisineDistanceMatchesTree(t *testing.T) {
	a := getAnalysis(t)
	pairs := [][2]string{{"UK", "Irish"}, {"Japanese", "Korean"}, {"Thai", "Mexican"}, {"UK", "UK"}}
	for _, f := range AllFigures() {
		tr, err := a.tree(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			got, err := a.CuisineDistance(f, p[0], p[1])
			if err != nil {
				t.Fatalf("%v %v: %v", f, p, err)
			}
			want, err := tr.Tree.MergeHeightBetween(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v %v: memoized %v, tree says %v", f, p, got, want)
			}
			again, err := a.CuisineDistance(f, p[0], p[1])
			if err != nil || again != got {
				t.Fatalf("%v %v: second call %v (%v), first %v", f, p, again, err, got)
			}
		}
	}
}

func TestCuisineDistanceUnknownInputs(t *testing.T) {
	a := getAnalysis(t)
	if _, err := a.CuisineDistance(Figure(99), "UK", "Irish"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := a.CuisineDistance(FigureCosine, "Narnia", "Irish"); err == nil {
		t.Fatal("unknown first region accepted")
	}
	if _, err := a.CuisineDistance(FigureCosine, "Irish", "Narnia"); err == nil {
		t.Fatal("unknown second region accepted")
	}
	if _, err := a.ClosestCuisine(Figure(99), "UK"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestStatsMemoized asserts both value stability and that the second
// call reuses the first computation (the PerRegion slices share one
// backing array only if ComputeStats ran once).
func TestStatsMemoized(t *testing.T) {
	a := getAnalysis(t)
	st1 := a.Stats()
	st2 := a.Stats()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("stats changed between calls:\n%+v\n%+v", st1, st2)
	}
	if len(st1.PerRegion) == 0 || &st1.PerRegion[0] != &st2.PerRegion[0] {
		t.Fatal("Stats recomputed: PerRegion not shared between calls")
	}
}

// TestDerivedStateConcurrent hammers the memoized accessors from many
// goroutines; the race detector (CI runs -race) verifies the sync.Once
// and sync.OnceValues guards.
func TestDerivedStateConcurrent(t *testing.T) {
	a := getAnalysis(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range AllFigures() {
				if _, err := a.ClosestCuisine(f, "Japanese"); err != nil {
					t.Error(err)
				}
				if _, err := a.CuisineDistance(f, "UK", "Thai"); err != nil {
					t.Error(err)
				}
			}
			if st := a.Stats(); st.Regions != 26 {
				t.Errorf("stats regions = %d", st.Regions)
			}
			if a.ElbowSharp() {
				t.Error("the on-demand elbow resolved to a sharp curve")
			}
		}()
	}
	wg.Wait()
}

func TestParseFigure(t *testing.T) {
	cases := map[string]Figure{
		"fig2-euclidean":    FigureEuclidean,
		"fig2":              FigureEuclidean,
		"euclidean":         FigureEuclidean,
		"cosine":            FigureCosine,
		"jaccard":           FigureJaccard,
		"fig5-authenticity": FigureAuthenticity,
		"authenticity":      FigureAuthenticity,
		"fig6":              FigureGeographic,
		"geographic":        FigureGeographic,
	}
	for in, want := range cases {
		got, err := ParseFigure(in)
		if err != nil || got != want {
			t.Fatalf("ParseFigure(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "fig7", "fig", "manhattan", "fig2-cosine"} {
		if _, err := ParseFigure(in); err == nil {
			t.Fatalf("ParseFigure(%q) accepted", in)
		}
	}
}

func TestOptionsCanonical(t *testing.T) {
	canon, err := Options{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Seed == 0 || canon.Scale != 1 || canon.MinSupport <= 0 || canon.Linkage != "average" {
		t.Fatalf("zero options canonicalized to %+v", canon)
	}
	// Aliases normalize to the same key.
	alias, err := Options{Linkage: "upgma"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if alias.Linkage != "average" {
		t.Fatalf("upgma canonicalized to %q", alias.Linkage)
	}
	// Workers survives canonicalization (callers zero it for cache keys).
	w, err := Options{Workers: 7}.Canonical()
	if err != nil || w.Workers != 7 {
		t.Fatalf("workers lost: %+v (%v)", w, err)
	}
	if _, err := (Options{Linkage: "centroid"}).Canonical(); err == nil {
		t.Fatal("unknown linkage accepted")
	}
}

// TestOptionsCanonicalRejectsNonFinite pins that a NaN or infinite scale
// or support is an error rather than a value passed through: a NaN key
// never equals itself, so a cache could neither hit nor evict it.
func TestOptionsCanonicalRejectsNonFinite(t *testing.T) {
	for _, o := range []Options{
		{Scale: math.NaN()},
		{Scale: math.Inf(1)},
		{Scale: math.Inf(-1)},
		{MinSupport: math.NaN()},
		{MinSupport: math.Inf(1)},
	} {
		if canon, err := o.Canonical(); err == nil {
			t.Errorf("Canonical(scale %v, support %v) accepted: %+v", o.Scale, o.MinSupport, canon)
		}
	}
}
