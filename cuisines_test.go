package cuisines

import (
	"bytes"
	"strings"
	"testing"

	"cuisines/internal/recipedb"
)

// analysisFixture is shared across the facade tests (a tenth-scale corpus
// keeps the suite fast while preserving every qualitative behaviour the
// facade exposes).
var analysisFixture *Analysis

func getAnalysis(t *testing.T) *Analysis {
	t.Helper()
	if analysisFixture == nil {
		a, err := Run(Options{Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		analysisFixture = a
	}
	return analysisFixture
}

func TestRunDefaults(t *testing.T) {
	a := getAnalysis(t)
	if got := len(a.Regions()); got != 26 {
		t.Fatalf("regions = %d", got)
	}
}

func TestRunRejectsBadLinkage(t *testing.T) {
	if _, err := Run(Options{Scale: 0.01, Linkage: "centroid"}); err == nil {
		t.Fatal("unknown linkage accepted")
	}
}

func TestTableShape(t *testing.T) {
	a := getAnalysis(t)
	rows := a.Table()
	if len(rows) != 26 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Recipes <= 0 || r.Patterns <= 0 || len(r.Top) == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.Top[0].Support <= 0 || r.Top[0].Support > 1 {
			t.Fatalf("support out of range: %+v", r.Top[0])
		}
	}
	rendered := a.RenderTable()
	if !strings.Contains(rendered, "Japanese") || !strings.Contains(rendered, "soy sauce") {
		t.Fatalf("table render:\n%s", rendered)
	}
}

func TestDendrogramsRender(t *testing.T) {
	a := getAnalysis(t)
	for _, f := range []Figure{FigureEuclidean, FigureCosine, FigureJaccard, FigureAuthenticity, FigureGeographic} {
		s, err := a.Dendrogram(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "Japanese") || !strings.Contains(s, "UK") {
			t.Fatalf("%v dendrogram missing labels:\n%s", f, s)
		}
		nw, err := a.Newick(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(nw, ";") || !strings.Contains(nw, "Thai") {
			t.Fatalf("%v newick: %q", f, nw)
		}
	}
	if _, err := a.Dendrogram(Figure(99)); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureNames(t *testing.T) {
	if FigureEuclidean.String() != "fig2-euclidean" || FigureGeographic.String() != "fig6-geographic" {
		t.Fatal("figure names wrong")
	}
	if !strings.Contains(Figure(42).String(), "42") {
		t.Fatal("unknown figure name")
	}
}

func TestCuisineDistanceSymmetric(t *testing.T) {
	a := getAnalysis(t)
	d1, err := a.CuisineDistance(FigureGeographic, "UK", "Irish")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.CuisineDistance(FigureGeographic, "Irish", "UK")
	if err != nil || d1 != d2 {
		t.Fatalf("asymmetric: %v vs %v (%v)", d1, d2, err)
	}
	if _, err := a.CuisineDistance(FigureGeographic, "UK", "Narnia"); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestClosestCuisineGeographic(t *testing.T) {
	a := getAnalysis(t)
	got, err := a.ClosestCuisine(FigureGeographic, "UK")
	if err != nil {
		t.Fatal(err)
	}
	if got != "Irish" {
		t.Fatalf("closest to UK geographically = %q, want Irish", got)
	}
	if _, err := a.ClosestCuisine(FigureGeographic, "Narnia"); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestClustersPartition(t *testing.T) {
	a := getAnalysis(t)
	groups, err := a.Clusters(FigureAuthenticity, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty cluster")
		}
		total += len(g)
	}
	if total != 26 {
		t.Fatalf("clusters cover %d regions", total)
	}
	if _, err := a.Clusters(FigureAuthenticity, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestStats(t *testing.T) {
	a := getAnalysis(t)
	st := a.Stats()
	if st.Regions != 26 || st.Recipes < 10000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanIngredients < 8 || st.MeanIngredients > 13 {
		t.Fatalf("mean ingredients = %v", st.MeanIngredients)
	}
}

func TestElbowReport(t *testing.T) {
	a := getAnalysis(t)
	rep := a.ElbowReport()
	if !strings.Contains(rep, "k=1") {
		t.Fatalf("elbow report:\n%s", rep)
	}
	if a.ElbowSharp() {
		t.Fatal("cuisine features should not show a sharp elbow (Fig. 1)")
	}
}

func TestCuisinePatterns(t *testing.T) {
	a := getAnalysis(t)
	ps, err := a.CuisinePatterns("Japanese")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < 10 {
		t.Fatalf("japanese patterns = %d", len(ps))
	}
	foundSoy := false
	for _, p := range ps {
		if len(p.Items) != len(p.Kinds) {
			t.Fatal("items/kinds misaligned")
		}
		if len(p.Items) == 1 && p.Items[0] == "soy sauce" {
			foundSoy = true
			if p.Support < 0.35 {
				t.Fatalf("soy sauce support = %v", p.Support)
			}
		}
	}
	if !foundSoy {
		t.Fatal("soy sauce pattern missing")
	}
	if _, err := a.CuisinePatterns("Narnia"); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestFingerprint(t *testing.T) {
	a := getAnalysis(t)
	fp, err := a.Fingerprint("Japanese", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Most) != 5 || len(fp.Least) != 5 {
		t.Fatalf("fingerprint sizes: %d/%d", len(fp.Most), len(fp.Least))
	}
	names := make([]string, 0, 5)
	for _, e := range fp.Most {
		names = append(names, e.Item)
		if e.Relative <= 0 {
			t.Fatalf("most authentic with non-positive relative: %+v", e)
		}
	}
	if !contains(names, "soy sauce") {
		t.Fatalf("soy sauce not among Japan's most authentic: %v", names)
	}
	for _, e := range fp.Least {
		if e.Relative >= 0 {
			t.Fatalf("least authentic with non-negative relative: %+v", e)
		}
	}
	if _, err := a.Fingerprint("Narnia", 3); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestSubstitutes(t *testing.T) {
	a := getAnalysis(t)
	// Chinese soy sauce frequently combines with add/heat; other bundle
	// members share that context.
	subs, err := a.Substitutes("Chinese and Mongolian", "ginger", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) == 0 {
		t.Fatal("no substitutes found")
	}
	for i := 1; i < len(subs); i++ {
		if subs[i].Similarity > subs[i-1].Similarity {
			t.Fatal("substitutes not sorted")
		}
	}
	if _, err := a.Substitutes("Chinese and Mongolian", "unobtainium", 5); err == nil {
		t.Fatal("unknown ingredient accepted")
	}
}

func TestClaimsAndFits(t *testing.T) {
	a := getAnalysis(t)
	claims := a.Claims()
	if len(claims) != 8 {
		t.Fatalf("claims = %d", len(claims))
	}
	// At tenth scale the anecdotes must hold in at least one tree each;
	// the full-scale run reproduces all eight (EXPERIMENTS.md).
	holdsByName := map[string]bool{}
	for _, c := range claims {
		holdsByName[c.Name] = holdsByName[c.Name] || c.Holds
	}
	for _, name := range []string{"canada-closer-to-france-than-us", "india-closer-to-north-africa-than-thai"} {
		if !holdsByName[name] {
			t.Errorf("claim %s fails in every tree", name)
		}
	}
	fits := a.GeographyFits()
	if len(fits) != 4 {
		t.Fatalf("fits = %d", len(fits))
	}
	for _, f := range fits {
		if f.BakersGamma < -1 || f.BakersGamma > 1 || f.RobinsonFoulds < 0 || f.RobinsonFoulds > 1 {
			t.Fatalf("fit out of range: %+v", f)
		}
	}
	if !strings.Contains(a.RenderValidation(), "Cophenetic") {
		t.Fatal("validation render incomplete")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestRunFromCSVRoundTrip(t *testing.T) {
	// Export a corpus through the public tooling format and re-analyze it:
	// results must match the direct run.
	direct, err := Run(Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := recipedb.WriteCSV(&buf, direct.recipes()); err != nil {
		t.Fatal(err)
	}
	loaded, err := RunFromCSV(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Regions()) != 26 {
		t.Fatalf("regions after round trip = %d", len(loaded.Regions()))
	}
	dt := direct.Table()
	lt := loaded.Table()
	for i := range dt {
		if dt[i].Region != lt[i].Region || dt[i].Patterns != lt[i].Patterns {
			t.Fatalf("row %d differs after CSV round trip:\n%+v\n%+v", i, dt[i], lt[i])
		}
	}
}

func TestRunFromJSONL(t *testing.T) {
	direct, err := Run(Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := recipedb.WriteJSONL(&buf, direct.recipes()); err != nil {
		t.Fatal(err)
	}
	loaded, err := RunFromJSONL(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().Recipes != direct.Stats().Recipes {
		t.Fatal("recipe count changed through JSONL round trip")
	}
}

func TestRunFromCSVMalformed(t *testing.T) {
	if _, err := RunFromCSV(strings.NewReader("not,a,recipe,csv\n"), Options{}); err == nil {
		t.Fatal("malformed CSV accepted")
	}
}
