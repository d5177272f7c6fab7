package flavor

import (
	"reflect"
	"strings"
	"testing"

	"cuisines/internal/corpus"
	"cuisines/internal/itemset"
	"cuisines/internal/recipedb"
	"cuisines/internal/rng"
)

func TestCategoryOf(t *testing.T) {
	cases := map[string]Category{
		"cumin":              CatSpice,
		"garam masala":       CatSpice,
		"Sichuan Peppercorn": CatSpice,
		"basil":              CatHerb,
		"butter":             CatDairy,
		"cheddar cheese":     CatDairy,
		"ground beef":        CatMeat,
		"smoked salmon":      CatSeafood,
		"lime":               CatFruit,
		"onion":              CatVegetable,
		"basmati rice":       CatGrain,
		"maple syrup":        CatSweet,
		"olive oil":          CatFat,
		"soy sauce":          CatSauce,
		"wattleseed":         CatOther,
	}
	for name, want := range cases {
		if got := CategoryOf(name); got != want {
			t.Errorf("CategoryOf(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTableDeterministic(t *testing.T) {
	a := NewTable([]string{"cumin", "butter"})
	b := NewTable([]string{"butter", "cumin", "onion"})
	ca, cb := a.Compounds("cumin"), b.Compounds("cumin")
	if len(ca) != len(cb) {
		t.Fatal("compound sets differ across tables")
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("compound sets differ across tables")
		}
	}
}

func TestCompoundsSortedUnique(t *testing.T) {
	tb := NewTable(nil)
	for _, name := range []string{"cumin", "butter", "soy sauce", "mystery item"} {
		ids := tb.Compounds(name)
		if len(ids) == 0 {
			t.Fatalf("%s has no compounds", name)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("%s compounds not sorted/unique", name)
			}
		}
	}
}

func TestSharedSymmetricAndSelf(t *testing.T) {
	tb := NewTable(nil)
	if tb.Shared("butter", "cream") != tb.Shared("cream", "butter") {
		t.Fatal("Shared asymmetric")
	}
	if tb.Shared("butter", "butter") != len(tb.Compounds("butter")) {
		t.Fatal("self sharing should equal compound count")
	}
}

func TestChemistryShape(t *testing.T) {
	tb := NewTable(nil)
	// Dairy pairs share much more than spice pairs (distinctive spice
	// chemistry).
	dairy := tb.Shared("butter", "cream")
	spice := tb.Shared("cumin", "coriander")
	if dairy <= spice+2 {
		t.Fatalf("dairy sharing (%d) should far exceed spice sharing (%d)", dairy, spice)
	}
	// Western affinity pool connects across categories.
	crossWestern := tb.Shared("butter", "maple syrup")
	crossOther := tb.Shared("cumin", "fish sauce")
	if crossWestern <= crossOther {
		t.Fatalf("western cross-category sharing (%d) should exceed unrelated (%d)", crossWestern, crossOther)
	}
}

func mustDB(t *testing.T, rs []recipedb.Recipe) *recipedb.DB {
	t.Helper()
	db, err := recipedb.New(rs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAnalyzeCuisineSigns(t *testing.T) {
	// A "western" cuisine bundling compound-sharing dairy items and a
	// "spice" cuisine bundling distinctive spices. The dairy cuisine must
	// score a higher (positive) delta than the spice one.
	var recipes []recipedb.Recipe
	for i := 0; i < 60; i++ {
		recipes = append(recipes, recipedb.Recipe{
			ID: idOf("w", i), Region: "West",
			Ingredients: []string{"butter", "cream", "flour"},
		})
		recipes = append(recipes, recipedb.Recipe{
			ID: idOf("s", i), Region: "Spicy",
			Ingredients: []string{"cumin", "coriander", "turmeric"},
		})
		// Background singles so the random baseline has variety.
		recipes = append(recipes, recipedb.Recipe{
			ID: idOf("wx", i), Region: "West",
			Ingredients: []string{pick(i, "onion", "apple", "oats", "bacon")},
		})
		recipes = append(recipes, recipedb.Recipe{
			ID: idOf("sx", i), Region: "Spicy",
			Ingredients: []string{pick(i, "onion", "lentil", "rice", "tomato")},
		})
	}
	db := mustDB(t, recipes)
	results := AnalyzeDB(db, 7)
	byRegion := map[string]PairingResult{}
	for _, r := range results {
		byRegion[r.Region] = r
	}
	west, spicy := byRegion["West"], byRegion["Spicy"]
	if west.Pairs == 0 || spicy.Pairs == 0 {
		t.Fatalf("no pairs measured: %+v %+v", west, spicy)
	}
	if west.DeltaNs <= spicy.DeltaNs {
		t.Fatalf("west delta %.3f should exceed spicy delta %.3f", west.DeltaNs, spicy.DeltaNs)
	}
	if west.DeltaNs <= 0 {
		t.Fatalf("dairy-bundled cuisine should be compound-positive: %+v", west)
	}
}

func idOf(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func pick(i int, xs ...string) string { return xs[i%len(xs)] }

func TestAnalyzeCuisineEmpty(t *testing.T) {
	res := AnalyzeCuisine("X", nil, nil, 1)
	if res.Pairs != 0 || res.DeltaNs != 0 {
		t.Fatalf("empty cuisine result: %+v", res)
	}
}

func TestRenderPairing(t *testing.T) {
	var b strings.Builder
	err := RenderPairing(&b, []PairingResult{{Region: "X", CoOccurring: 1, Random: 0.5, DeltaNs: 0.5}})
	if err != nil || !strings.Contains(b.String(), "delta N_s") {
		t.Fatalf("render: %q err %v", b.String(), err)
	}
}

func TestCategoryString(t *testing.T) {
	if CatSpice.String() != "spice" || CatOther.String() != "other" {
		t.Fatal("category names wrong")
	}
}

// TestAnalyzeDBMatchesNameReference pins the id-based statistic to the
// name-based one it replaced: each recipe's distinct canonical
// ingredient names in sorted order, compound sharing looked up by name
// through Table.Shared. A corpus and a DB with case, spacing and
// repeated-name variants must agree in every field, bit for bit.
func TestAnalyzeDBMatchesNameReference(t *testing.T) {
	gen, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	variants := mustDB(t, []recipedb.Recipe{
		{ID: "1", Region: "A", Ingredients: []string{"Butter", " butter ", "Cream", "flour"}},
		{ID: "2", Region: "A", Ingredients: []string{"cream", "CUMIN", "onion"}, Processes: []string{"cream"}},
		{ID: "3", Region: "B", Ingredients: []string{"cumin", "Coriander  Seed", "coriander seed"}},
		{ID: "4", Region: "B", Ingredients: []string{"onion", "cumin"}, Utensils: []string{"onion"}},
	})
	for name, db := range map[string]*recipedb.DB{"corpus": gen, "variants": variants} {
		if got, want := AnalyzeDB(db, 7), referencePairing(db, 7); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: AnalyzeDB\n%+v\nreference\n%+v", name, got, want)
		}
	}
}

func referencePairing(db *recipedb.DB, seed uint64) []PairingResult {
	t := NewTable(nil)
	var out []PairingResult
	for _, region := range db.Regions() {
		res := PairingResult{Region: region}
		var sumCo float64
		var nCo int
		var occ []string
		for _, rec := range db.RegionRecipes(region) {
			ings := itemset.FromNames(itemset.Ingredient, rec.Ingredients...).Names()
			occ = append(occ, ings...)
			pairs := 0
			for i := 0; i < len(ings) && pairs < 60; i++ {
				for j := i + 1; j < len(ings) && pairs < 60; j++ {
					sumCo += float64(t.Shared(ings[i], ings[j]))
					nCo++
					pairs++
				}
			}
		}
		if nCo > 0 {
			res.CoOccurring, res.Pairs = sumCo/float64(nCo), nCo
			r := rng.New(seed ^ hash(region))
			var sumRand float64
			nRand := min(nCo, 200_000)
			for k := 0; k < nRand; k++ {
				a, b := occ[r.Intn(len(occ))], occ[r.Intn(len(occ))]
				for b == a {
					b = occ[r.Intn(len(occ))]
				}
				sumRand += float64(t.Shared(a, b))
			}
			res.Random = sumRand / float64(nRand)
			res.DeltaNs = res.CoOccurring - res.Random
		}
		out = append(out, res)
	}
	return out
}
