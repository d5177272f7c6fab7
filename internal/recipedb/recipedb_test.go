package recipedb

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cuisines/internal/itemset"
)

func sampleRecipes() []Recipe {
	return []Recipe{
		{ID: "r1", Name: "Miso Soup", Region: "Japanese",
			Ingredients: []string{"miso", "tofu", "dashi"},
			Processes:   []string{"boil", "add"},
			Utensils:    []string{"pot"}},
		{ID: "r2", Name: "Ramen", Region: "Japanese",
			Ingredients: []string{"noodles", "soy sauce", "egg"},
			Processes:   []string{"boil", "simmer"},
			Utensils:    nil}, // no utensil data — allowed
		{ID: "r3", Name: "Tacos", Region: "Mexican",
			Ingredients: []string{"tortilla", "cilantro", "onion"},
			Processes:   []string{"heat", "add"},
			Utensils:    []string{"skillet"}},
	}
}

func mustDB(t *testing.T, rs []Recipe) *DB {
	t.Helper()
	db, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewIndexesRegions(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	if db.Len() != 3 || db.NumRegions() != 2 {
		t.Fatalf("len=%d regions=%d", db.Len(), db.NumRegions())
	}
	if !reflect.DeepEqual(db.Regions(), []string{"Japanese", "Mexican"}) {
		t.Fatalf("regions = %v", db.Regions())
	}
	if db.RegionSize("Japanese") != 2 || db.RegionSize("Atlantis") != 0 {
		t.Fatal("region sizes wrong")
	}
	rs := db.RegionRecipes("Mexican")
	if len(rs) != 1 || rs[0].ID != "r3" {
		t.Fatalf("region recipes = %v", rs)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cases := []Recipe{
		{ID: "", Region: "X", Ingredients: []string{"a"}},
		{ID: "x", Region: "", Ingredients: []string{"a"}},
		{ID: "x", Region: "X", Ingredients: nil},
	}
	for i, r := range cases {
		if _, err := New([]Recipe{r}); err == nil {
			t.Errorf("case %d accepted invalid recipe", i)
		}
	}
}

func TestNewRejectsDuplicateIDs(t *testing.T) {
	rs := sampleRecipes()
	rs[1].ID = "r1"
	if _, err := New(rs); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestItemsSpanKinds(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	v := db.Vocab()
	kinds := map[itemset.Kind]int{}
	for _, id := range v.Recipe(0) {
		kinds[v.Items()[id].Kind]++
	}
	if kinds[itemset.Ingredient] != 3 || kinds[itemset.Process] != 2 || kinds[itemset.Utensil] != 1 {
		t.Fatalf("recipe 0 items by kind = %v", kinds)
	}
}

func TestVocabRegion(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	v := db.Vocab()
	japanese := v.Region(0) // Regions()[0]
	if len(japanese) != 2 {
		t.Fatalf("Japanese region holds %d recipes", len(japanese))
	}
	for row, want := range []int{2, 0} { // boil: both Japanese recipes, no Mexican one
		n := 0
		for _, rec := range v.Region(row) {
			for _, id := range rec {
				if v.Items()[id] == itemset.NewItem("boil", itemset.Process) {
					n++
				}
			}
		}
		if n != want {
			t.Errorf("%s: %d recipes hold boil, want %d", db.Regions()[row], n, want)
		}
	}
}

// TestNewLeavesVocabUnbuilt: building a DB without a vocabulary — as
// the corpus decoder does on every disk or peer load — must not build
// one; only the stages that read it (mine, auth, stats, pairing) pay
// for it, and a restart that serves stored artifacts runs none of them.
func TestNewLeavesVocabUnbuilt(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	if db.vocab != nil {
		t.Error("New built the vocabulary")
	}
	checked, err := NewChecked(sampleRecipes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if checked.vocab != nil {
		t.Error("NewChecked without a vocabulary built one")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.vocab != nil {
		t.Error("ReadJSONL built the vocabulary")
	}
	if db.Vocab() != db.Vocab() || db.vocab == nil {
		t.Error("Vocab is not built once and kept")
	}
}

// TestNewCheckedTakesVocab: a producer's vocabulary is served as
// handed over, equal to the one built from the recipes, while every
// check but the per-occurrence name scan still rejects.
func TestNewCheckedTakesVocab(t *testing.T) {
	ref := mustDB(t, sampleRecipes()).Vocab()
	handed := func() *Vocab { return NewVocab(slices.Clone(ref.items), slices.Clone(ref.ids), slices.Clone(ref.off)) }
	db, err := NewChecked(sampleRecipes(), handed())
	if err != nil {
		t.Fatal(err)
	}
	if db.vocab == nil || !reflect.DeepEqual(db.Vocab(), ref) {
		t.Fatalf("NewChecked vocabulary %+v, built %+v", db.vocab, ref)
	}

	blank, swapped, short := handed(), handed(), handed()
	blank.items[0].Name = " "
	swapped.items[0], swapped.items[1] = swapped.items[1], swapped.items[0]
	short.off = short.off[:len(short.off)-1]
	for name, v := range map[string]*Vocab{"blank item": blank, "items out of order": swapped, "one list short": short} {
		if _, err := NewChecked(sampleRecipes(), v); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	invalid := func(edit func(*Recipe)) []Recipe {
		rs := sampleRecipes()
		edit(&rs[1])
		return rs
	}
	for name, rs := range map[string][]Recipe{
		"empty ID":       invalid(func(r *Recipe) { r.ID = "" }),
		"empty region":   invalid(func(r *Recipe) { r.Region = "" }),
		"no ingredients": invalid(func(r *Recipe) { r.Ingredients = nil }),
		"duplicate ID":   invalid(func(r *Recipe) { r.ID = "r1" }),
	} {
		if _, err := NewChecked(rs, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVocabConcurrentFirstUse: the mine and auth stages of one run may
// reach an unbuilt vocabulary at once; they must share one build.
func TestVocabConcurrentFirstUse(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	got := make([]*Vocab, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = db.Vocab()
		}()
	}
	wg.Wait()
	for g, v := range got {
		if v != got[0] || len(v.Items()) != 15 {
			t.Fatalf("goroutine %d got vocabulary %p with %d items; goroutine 0 got %p", g, v, len(v.Items()), got[0])
		}
	}
}

// TestRejectsBlankItemNames: a name that canonicalises to "" is no
// item. Both readers and New reject it, for every kind, instead of
// mining an item named "".
func TestRejectsBlankItemNames(t *testing.T) {
	for _, r := range []Recipe{
		{ID: "a", Region: "X", Ingredients: []string{"  "}},
		{ID: "a", Region: "X", Ingredients: []string{"rice", "\t\n"}},
		{ID: "a", Region: "X", Ingredients: []string{"rice"}, Processes: []string{""}},
		{ID: "a", Region: "X", Ingredients: []string{"rice"}, Utensils: []string{"\u00a0"}},
	} {
		if _, err := New([]Recipe{r}); err == nil || !strings.Contains(err.Error(), "blank") {
			t.Errorf("New(%q) error = %v, want a blank-name rejection", r.Ingredients, err)
		}
	}
	jsonl := `{"id":"a","region":"X","ingredients":["  "],"processes":[""]}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(jsonl)); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("ReadJSONL accepted blank names: %v", err)
	}
	csv := "id,name,region,ingredients,processes,utensils\na,,X,  ,,\n"
	if _, err := ReadCSV(strings.NewReader(csv)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("ReadCSV accepted blank names: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	st := ComputeStats(db)
	if st.Recipes != 3 || st.Regions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UniqueIngredients != 9 || st.UniqueProcesses != 4 || st.UniqueUtensils != 2 {
		t.Fatalf("unique counts = %+v", st)
	}
	if st.RecipesWithoutUtensils != 1 {
		t.Fatalf("missing utensils = %d", st.RecipesWithoutUtensils)
	}
	if st.MeanIngredients != 3 {
		t.Fatalf("mean ingredients = %v", st.MeanIngredients)
	}
	out := st.String()
	if !strings.Contains(out, "Japanese") || !strings.Contains(out, "recipes: 3") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestStatsCanonicalization(t *testing.T) {
	db := mustDB(t, []Recipe{
		{ID: "a", Region: "X", Ingredients: []string{"Soy Sauce"}},
		{ID: "b", Region: "X", Ingredients: []string{"soy  sauce"}},
	})
	if st := ComputeStats(db); st.UniqueIngredients != 1 {
		t.Fatalf("canonicalization failed: %d unique", st.UniqueIngredients)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip lost recipes: %d", back.Len())
	}
	for i := 0; i < db.Len(); i++ {
		a, b := db.Recipe(i), back.Recipe(i)
		if a.ID != b.ID || a.Region != b.Region || !reflect.DeepEqual(a.Ingredients, b.Ingredients) ||
			!reflect.DeepEqual(a.Processes, b.Processes) || !reflect.DeepEqual(a.Utensils, b.Utensils) {
			t.Fatalf("recipe %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip lost recipes: %d", back.Len())
	}
	if back.Recipe(1).Utensils != nil {
		t.Fatal("empty utensils should stay nil")
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("id,nom,region,i,p,u\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestReadCSVRejectsBadFieldCount(t *testing.T) {
	in := "id,name,region,ingredients,processes,utensils\nr1,Soup,Japanese,miso\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("malformed json accepted")
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := `{"id":"a","name":"x","region":"R","ingredients":["i"]}` + "\n\n" +
		`{"id":"b","name":"y","region":"R","ingredients":["j"]}` + "\n"
	db, err := ReadJSONL(strings.NewReader(in))
	if err != nil || db.Len() != 2 {
		t.Fatalf("db=%v err=%v", db, err)
	}
}

func TestCSVListSeparatorHandling(t *testing.T) {
	// Empty segments within lists are dropped.
	in := "id,name,region,ingredients,processes,utensils\n" +
		"r1,Soup,Japanese,miso| |tofu,,\n"
	db, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := db.Recipe(0)
	if !reflect.DeepEqual(r.Ingredients, []string{"miso", "tofu"}) {
		t.Fatalf("ingredients = %v", r.Ingredients)
	}
	if r.Processes != nil || r.Utensils != nil {
		t.Fatalf("empty lists should be nil: %v %v", r.Processes, r.Utensils)
	}
}
