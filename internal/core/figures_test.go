package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/kmeans"
	"cuisines/internal/pipeline"
	"cuisines/internal/recipedb"
)

// resultFixture runs the staged pipeline every command uses once on a
// reduced corpus for the integration tests.
var resultFixture *pipeline.Result

func getResult(t *testing.T) *pipeline.Result {
	t.Helper()
	if resultFixture == nil {
		res, err := pipeline.New(nil).Run(context.Background(), pipeline.Params{Scale: 0.25, Method: core.DefaultLinkage})
		if err != nil {
			t.Fatal(err)
		}
		resultFixture = res
	}
	return resultFixture
}

func getFigures(t *testing.T) *core.Figures { return getResult(t).Figures }

// getElbow resolves the fixture's on-demand Fig. 1 curve.
func getElbow(t *testing.T) *kmeans.ElbowCurve {
	t.Helper()
	curve, err := getResult(t).Elbow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return curve
}

func TestBuildFiguresComplete(t *testing.T) {
	f := getFigures(t)
	if f.Table1 == nil || len(f.Table1.Rows) != 26 {
		t.Fatal("table1 incomplete")
	}
	for _, tree := range []*core.CuisineTree{f.Euclidean, f.Cosine, f.Jaccard, f.Auth, f.Geo} {
		if tree.Tree.N() != 26 {
			t.Fatalf("%s tree has %d leaves", tree.Name, tree.Tree.N())
		}
	}
	if f.Euclidean.Linkage != core.EuclideanLinkage {
		t.Fatal("euclidean tree must use the euclidean linkage")
	}
	if n := len(getElbow(t).Points); n != 15 {
		t.Fatalf("elbow points = %d", n)
	}
	if f.Patterns.X.Rows() != 26 || f.Patterns.X.Cols() == 0 {
		t.Fatal("pattern matrix empty")
	}
	if len(f.AuthMat.Items) == 0 {
		t.Fatal("authenticity matrix empty")
	}
}

func TestFig1NoSharpElbow(t *testing.T) {
	// The paper's Fig. 1 finding: "no sharp edge or elbow like structure
	// is obtained".
	curve := getElbow(t)
	if curve.Sharp() {
		t.Fatalf("cuisine features produced a sharp elbow (strength %.3f)", curve.ElbowStrength)
	}
}

func TestTable1HeadlinesMatchPaper(t *testing.T) {
	// Calibration: every region's measured headline pattern must be the
	// profile's Table I target (at this scale small regions get a little
	// slack: the target must appear in the top 3).
	f := getFigures(t)
	for _, row := range f.Table1.Rows {
		prof, err := corpus.ProfileFor(row.Region)
		if err != nil {
			t.Fatal(err)
		}
		if len(row.Top) == 0 {
			t.Errorf("%s: no significant patterns", row.Region)
			continue
		}
		want := prof.IntendedTop[0]
		rank := -1
		for i, sp := range row.Top {
			if sp.Pattern.StringPattern() == want {
				rank = i
				break
			}
		}
		if rank == -1 {
			t.Errorf("%s: paper headline %q not in top 3 (top: %v)", row.Region, want, row.Top[0].Pattern)
			continue
		}
		if rank != 0 && row.Recipes > 500 {
			t.Errorf("%s: paper headline %q ranked #%d behind %v", row.Region, want, rank+1, row.Top[0].Pattern)
		}
	}
}

func TestValidationClaimsAtReducedScale(t *testing.T) {
	// The Sec. VII anecdotes must hold in the authenticity tree even at
	// quarter scale; the full-scale run (EXPERIMENTS.md, cmd/evaltrees)
	// reproduces all eight claims.
	f := getFigures(t)
	v, err := core.Validate(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.TreeFit) != 4 || len(v.Claims) != 8 {
		t.Fatalf("validation shape: %d fits, %d claims", len(v.TreeFit), len(v.Claims))
	}
	byName := map[string][]bool{}
	for _, c := range v.Claims {
		byName[c.Name] = append(byName[c.Name], c.Holds)
	}
	for _, name := range []string{
		"canada-closer-to-france-than-us",
		"india-closer-to-north-africa-than-thai",
		"india-closer-to-north-africa-than-southeast-asian",
	} {
		holds := byName[name]
		if len(holds) == 0 {
			t.Fatalf("claim %s missing", name)
		}
		any := false
		for _, h := range holds {
			any = any || h
		}
		if !any {
			t.Errorf("claim %s fails in every tree at reduced scale", name)
		}
	}
	var rendered strings.Builder
	if err := v.Render(&rendered); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered.String(), "Baker's gamma") {
		t.Fatalf("render:\n%s", rendered.String())
	}
}

func TestGeographicTreeSanity(t *testing.T) {
	f := getFigures(t)
	// Geographic anchors: UK-Irish merge below UK-Australian.
	ukIE, err := f.Geo.Tree.MergeHeightBetween("UK", "Irish")
	if err != nil {
		t.Fatal(err)
	}
	ukAU, err := f.Geo.Tree.MergeHeightBetween("UK", "Australian")
	if err != nil {
		t.Fatal(err)
	}
	if ukIE >= ukAU {
		t.Fatalf("geo tree: UK-Irish %.0f >= UK-Australian %.0f", ukIE, ukAU)
	}
}

func TestEastAsiaClustersInPatternTrees(t *testing.T) {
	// Figs. 2-4 all show the East Asian cuisines grouped; check on the
	// cosine tree (the most size-robust).
	f := getFigures(t)
	cnJP, _ := f.Cosine.Tree.MergeHeightBetween("Chinese and Mongolian", "Japanese")
	cnUK, _ := f.Cosine.Tree.MergeHeightBetween("Chinese and Mongolian", "UK")
	if cnJP >= cnUK {
		t.Fatalf("cosine tree: China-Japan %.3f >= China-UK %.3f", cnJP, cnUK)
	}
}

func TestPatternTreeErrorsOnTinyInput(t *testing.T) {
	var japan []recipedb.Recipe
	for i := 0; i < 3; i++ {
		japan = append(japan, recipedb.Recipe{ID: fmt.Sprint("j", i), Region: "Japan", Ingredients: []string{"soy"}})
	}
	db, err := recipedb.New(japan)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.New(nil).RunOn(context.Background(), db, pipeline.Params{MinSupport: 0.5, Method: core.DefaultLinkage})
	if err == nil || !strings.Contains(err.Error(), "two cuisines") {
		t.Fatalf("single-region trees: err = %v, want a two-cuisine rejection", err)
	}
}

func TestAnalyzeKindInfluence(t *testing.T) {
	// The geographic tree depends only on the region set, which every
	// scale shares, so the fixture's Fig. 6 tree serves the tenth-scale
	// corpus.
	f := getFigures(t)
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := core.AnalyzeKindInfluence(db, f.Geo, core.DefaultLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("kinds = %d", len(rows))
	}
	byKind := map[string]core.KindInfluence{}
	for _, r := range rows {
		byKind[r.Kind] = r
		if r.Items <= 0 {
			t.Fatalf("no items for kind %s", r.Kind)
		}
		if r.GeoGamma < -1 || r.GeoGamma > 1 {
			t.Fatalf("gamma out of range: %+v", r)
		}
	}
	// Ingredient tree agrees with itself perfectly.
	if byKind["ingredient"].IngredientAgreement < 0.999 {
		t.Fatalf("ingredient self-agreement = %v", byKind["ingredient"].IngredientAgreement)
	}
	// Ingredients carry far more geographic signal than the sparse,
	// globally shared utensil vocabulary — the answer to the paper's
	// Sec. VIII question.
	if byKind["ingredient"].GeoGamma <= byKind["utensil"].GeoGamma {
		t.Errorf("expected ingredients (%.3f) to out-signal utensils (%.3f)",
			byKind["ingredient"].GeoGamma, byKind["utensil"].GeoGamma)
	}
	var b strings.Builder
	if err := core.RenderKindInfluence(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ingredient") {
		t.Fatalf("render:\n%s", b.String())
	}
}
