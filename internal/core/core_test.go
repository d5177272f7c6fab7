package core

import (
	"math"
	"strings"
	"testing"

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
