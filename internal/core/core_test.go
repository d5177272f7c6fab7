package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cuisines/internal/corpus"
	"cuisines/internal/itemset"
	"cuisines/internal/recipedb"
)

func ing(name string) itemset.Item  { return itemset.NewItem(name, itemset.Ingredient) }
func proc(name string) itemset.Item { return itemset.NewItem(name, itemset.Process) }

func pat(sup float64, items ...itemset.Item) itemset.Pattern {
	return itemset.Pattern{Items: itemset.NewSet(items...), Support: sup}
}

func mustDB(t *testing.T, rs []recipedb.Recipe) *recipedb.DB {
	t.Helper()
	db, err := recipedb.New(rs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func smallDB(t *testing.T) *recipedb.DB {
	return mustDB(t, []recipedb.Recipe{
		{ID: "j1", Region: "Japan", Ingredients: []string{"soy", "salt"}, Processes: []string{"add"}},
		{ID: "j2", Region: "Japan", Ingredients: []string{"soy", "salt"}, Processes: []string{"add"}},
		{ID: "j3", Region: "Japan", Ingredients: []string{"soy"}, Processes: []string{"add"}},
		{ID: "m1", Region: "Mexico", Ingredients: []string{"lime", "salt"}, Processes: []string{"add"}},
		{ID: "m2", Region: "Mexico", Ingredients: []string{"lime", "salt"}, Processes: []string{"add"}},
		{ID: "m3", Region: "Mexico", Ingredients: []string{"lime"}, Processes: []string{"add"}},
	})
}

func TestMineRegions(t *testing.T) {
	rps, err := MineRegionsWorkers(smallDB(t), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rps) != 2 {
		t.Fatalf("regions = %d", len(rps))
	}
	if rps[0].Region != "Japan" || rps[1].Region != "Mexico" {
		t.Fatalf("order = %v, %v", rps[0].Region, rps[1].Region)
	}
	if rps[0].Recipes != 3 {
		t.Fatalf("recipes = %d", rps[0].Recipes)
	}
	found := false
	for _, p := range rps[0].Patterns {
		if p.StringPattern() == "soy" && p.Count == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("soy pattern missing: %v", rps[0].Patterns)
	}
}

func TestMineRegionsRejectsBadInput(t *testing.T) {
	if _, err := MineRegionsWorkers(&recipedb.DB{}, 0.5, 0); err == nil {
		t.Fatal("empty db accepted")
	}
	if _, err := MineRegionsWorkers(smallDB(t), 0, 0); err == nil {
		t.Fatal("zero support accepted")
	}
	if _, err := MineRegionsWorkers(smallDB(t), 1.5, 0); err == nil {
		t.Fatal("support > 1 accepted")
	}
	if _, err := MineRegionsWorkers(smallDB(t), math.NaN(), 0); err == nil {
		t.Fatal("NaN support accepted")
	}
}

func TestRankerUniversalDetection(t *testing.T) {
	rps, err := MineRegionsWorkers(smallDB(t), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRanker(rps, 0.6)
	// salt and add are frequent in both regions -> universal; soy and
	// lime in one each -> not.
	if !r.IsUniversal(ing("salt")) || !r.IsUniversal(proc("add")) {
		t.Fatalf("universals = %v", r.UniversalItems())
	}
	if r.IsUniversal(ing("soy")) || r.IsUniversal(ing("lime")) {
		t.Fatal("regional item classified universal")
	}
}

func TestRankerScoreRules(t *testing.T) {
	rps, _ := MineRegionsWorkers(smallDB(t), 0.5, 0)
	r := NewRanker(rps, 0.6)
	// All-universal pattern excluded.
	if s := r.Score(pat(0.9, ing("salt"), proc("add"))); s != -1 {
		t.Fatalf("all-universal score = %v", s)
	}
	// Process-only pattern excluded even when not universal.
	if s := r.Score(pat(0.9, proc("flamb"))); s != -1 {
		t.Fatalf("process-only score = %v", s)
	}
	// Anchored regional pattern scores support * size bonus.
	if s := r.Score(pat(0.4, ing("soy"))); s != 0.4 {
		t.Fatalf("singleton score = %v", s)
	}
	if s := r.Score(pat(0.4, ing("soy"), proc("add"))); s != 0.4*1.25 {
		t.Fatalf("pair score = %v", s)
	}
}

func TestRankerRankOrderAndTies(t *testing.T) {
	rps, _ := MineRegionsWorkers(smallDB(t), 0.5, 0)
	r := NewRanker(rps, 0.6)
	ps := []itemset.Pattern{
		pat(0.30, ing("soy")),
		pat(0.28, ing("soy"), ing("lime")), // score 0.35 — wins
		pat(0.9, ing("salt"), proc("add")), // excluded
		pat(0.30, ing("lime")),             // ties with soy; lexicographic
	}
	ranked := r.Rank(ps)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d patterns", len(ranked))
	}
	if ranked[0].Pattern.StringPattern() != "lime+soy" {
		t.Fatalf("top = %v", ranked[0].Pattern)
	}
	if ranked[1].Pattern.StringPattern() != "lime" || ranked[2].Pattern.StringPattern() != "soy" {
		t.Fatalf("tie order wrong: %v", ranked)
	}
	top := r.Top(ps, 1)
	if len(top) != 1 || top[0].Pattern.StringPattern() != "lime+soy" {
		t.Fatalf("Top(1) = %v", top)
	}
}

func TestBuildTable1SmallDB(t *testing.T) {
	rps, err := MineRegionsWorkers(smallDB(t), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := BuildPatternFeatures(rps, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	jp := table.Rows[0]
	if jp.Region != "Japan" || len(jp.Top) == 0 {
		t.Fatalf("row = %+v", jp)
	}
	// Japan patterns at 0.5: {soy}=1.0, {soy,add}=1.0 etc. The pair
	// {soy, add} wins on the size bonus (1.0 * 1.25).
	if jp.Top[0].Pattern.StringPattern() != "add+soy" {
		t.Fatalf("japan top = %v", jp.Top[0].Pattern)
	}
	out := table.String()
	if !strings.Contains(out, "Japan") || !strings.Contains(out, "Region") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAnchoredPatterns(t *testing.T) {
	sets := [][]itemset.Pattern{{
		pat(0.5, ing("soy")),
		pat(0.5, proc("add")),
		pat(0.5, proc("add"), proc("heat")),
		pat(0.5, ing("soy"), proc("add")),
	}}
	out := AnchoredPatterns(sets)
	if len(out[0]) != 2 {
		t.Fatalf("anchored = %v", out[0])
	}
	for _, p := range out[0] {
		hasAnchor := false
		for _, it := range p.Items.Items() {
			if it.Kind != itemset.Process {
				hasAnchor = true
			}
		}
		if !hasAnchor {
			t.Fatalf("process-only pattern survived: %v", p)
		}
	}
}

// figuresFixture builds figures once on a reduced corpus for the
// integration tests.
var figuresFixture *Figures

func getFigures(t *testing.T) *Figures {
	t.Helper()
	if figuresFixture == nil {
		db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		figs, err := BuildFiguresWorkers(db, DefaultMinSupport, DefaultLinkage, 0)
		if err != nil {
			t.Fatal(err)
		}
		figuresFixture = figs
	}
	return figuresFixture
}

func TestBuildFiguresComplete(t *testing.T) {
	f := getFigures(t)
	if f.Table1 == nil || len(f.Table1.Rows) != 26 {
		t.Fatal("table1 incomplete")
	}
	for _, tree := range []*CuisineTree{f.Euclidean, f.Cosine, f.Jaccard, f.Auth, f.Geo} {
		if tree.Tree.N() != 26 {
			t.Fatalf("%s tree has %d leaves", tree.Name, tree.Tree.N())
		}
	}
	if f.Euclidean.Linkage != EuclideanLinkage {
		t.Fatal("euclidean tree must use the euclidean linkage")
	}
	if len(f.Elbow.Points) != 15 {
		t.Fatalf("elbow points = %d", len(f.Elbow.Points))
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
	f := getFigures(t)
	if f.Elbow.Sharp() {
		t.Fatalf("cuisine features produced a sharp elbow (strength %.3f)", f.Elbow.ElbowStrength)
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
	v, err := Validate(f)
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
	_, err := BuildFiguresWorkers(mustDB(t, japan), 0.5, DefaultLinkage, 0)
	if err == nil || !strings.Contains(err.Error(), "two cuisines") {
		t.Fatalf("single-region trees: err = %v, want a two-cuisine rejection", err)
	}
}

func TestAnalyzeKindInfluence(t *testing.T) {
	f := getFigures(t)
	_ = f // ensure fixture corpus exists for timing comparability
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AnalyzeKindInfluence(db, DefaultLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("kinds = %d", len(rows))
	}
	byKind := map[string]KindInfluence{}
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
	if err := RenderKindInfluence(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ingredient") {
		t.Fatalf("render:\n%s", b.String())
	}
}
