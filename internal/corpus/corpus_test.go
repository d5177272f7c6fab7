package corpus

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cuisines/internal/eclat"
	"cuisines/internal/geo"
	"cuisines/internal/itemset"
	"cuisines/internal/recipedb"
)

func TestProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("expected 26 profiles, got %d", len(ps))
	}
	seen := make(map[string]bool)
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Region, err)
		}
		if seen[p.Region] {
			t.Errorf("duplicate profile %s", p.Region)
		}
		seen[p.Region] = true
		if len(p.IntendedTop) == 0 || p.PaperSupport <= 0 || p.PaperPatternCount <= 0 {
			t.Errorf("profile %s missing Table I calibration targets", p.Region)
		}
	}
}

func TestProfilesMatchGeoRegions(t *testing.T) {
	for _, p := range Profiles() {
		if _, err := geo.Lookup(p.Region); err != nil {
			t.Errorf("profile region %q unknown to geo: %v", p.Region, err)
		}
	}
}

func TestTotalRecipesMatchesTableI(t *testing.T) {
	// The per-region Table I counts sum to 118,171 (the abstract's
	// 118,071 is a known paper typo — see profiles.go).
	if got := TotalRecipes(); got != 118171 {
		t.Fatalf("TotalRecipes = %d, want 118171", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.02, Regions: []string{"Japanese", "Mexican"}}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Recipe(i), b.Recipe(i)
		if ra.ID != rb.ID || !recipeItems(ra).Equal(recipeItems(rb)) {
			t.Fatalf("recipe %d differs between runs", i)
		}
	}
}

func TestGenerateRegionIndependence(t *testing.T) {
	// A region's recipes must be identical whether generated alone or
	// with others (per-region seeding).
	solo, err := Generate(Config{Seed: 11, Scale: 0.02, Regions: []string{"Thai"}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Generate(Config{Seed: 11, Scale: 0.02, Regions: []string{"Greek", "Thai"}})
	if err != nil {
		t.Fatal(err)
	}
	soloThai := solo.RegionRecipes("Thai")
	bothThai := both.RegionRecipes("Thai")
	if len(soloThai) != len(bothThai) {
		t.Fatalf("region sizes differ: %d vs %d", len(soloThai), len(bothThai))
	}
	for i := range soloThai {
		if soloThai[i].ID != bothThai[i].ID || !recipeItems(soloThai[i]).Equal(recipeItems(bothThai[i])) {
			t.Fatalf("Thai recipe %d differs with/without Greek present", i)
		}
	}
	// Each subset's vocabulary is the one built from its recipes, and
	// gives every Thai recipe the same items either way.
	checkGeneratedVocab(t, solo)
	checkGeneratedVocab(t, both)
	soloRow, bothRow := slices.Index(solo.Regions(), "Thai"), slices.Index(both.Regions(), "Thai")
	soloLists, bothLists := solo.Vocab().Region(soloRow), both.Vocab().Region(bothRow)
	for i := range soloLists {
		if !reflect.DeepEqual(vocabItems(solo.Vocab(), soloLists[i]), vocabItems(both.Vocab(), bothLists[i])) {
			t.Fatalf("Thai recipe %d has different vocabulary items with/without Greek present", i)
		}
	}
}

// checkGeneratedVocab asserts that the vocabulary the generator handed
// recipedb equals the one recipedb builds from the recipes alone.
func checkGeneratedVocab(t *testing.T, db *recipedb.DB) {
	t.Helper()
	built, err := recipedb.New(db.Recipes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.Vocab(), built.Vocab()) {
		t.Fatal("generated vocabulary differs from the one built from the recipes")
	}
}

// vocabItems resolves an id list of v.
func vocabItems(v *recipedb.Vocab, ids []int32) []itemset.Item {
	out := make([]itemset.Item, len(ids))
	for i, id := range ids {
		out[i] = v.Items()[id]
	}
	return out
}

func TestGenerateUnknownRegion(t *testing.T) {
	if _, err := Generate(Config{Seed: 1, Regions: []string{"Atlantis"}}); err == nil {
		t.Fatal("unknown region accepted")
	}
}

// TestGenerateUnknownRegionDeterministicError pins the mapiter fix:
// the error used to name an arbitrary unknown region picked by map
// iteration order, so the same bad input produced different messages
// run to run. It must now name all of them, sorted.
func TestGenerateUnknownRegionDeterministicError(t *testing.T) {
	want := `corpus: unknown region "Atlantis, Mu, Narnia"`
	for i := 0; i < 10; i++ {
		_, err := Generate(Config{Seed: 1, Regions: []string{"Narnia", "Atlantis", "Thai", "Mu"}})
		if err == nil {
			t.Fatal("unknown regions accepted")
		}
		if err.Error() != want {
			t.Fatalf("iteration %d: error %q, want %q", i, err.Error(), want)
		}
	}
}

func TestGenerateScaleControlsSize(t *testing.T) {
	db, err := Generate(Config{Seed: 3, Scale: 0.05, Regions: []string{"Italian"}})
	if err != nil {
		t.Fatal(err)
	}
	italianFull := 16582.0
	want := int(0.05*italianFull + 0.5)
	if db.Len() < want-1 || db.Len() > want+1 {
		t.Fatalf("scaled size = %d, want ~%d", db.Len(), want)
	}
}

func TestGenerateMinimumRegionSize(t *testing.T) {
	db, err := Generate(Config{Seed: 3, Scale: 0.001, Regions: []string{"Korean"}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() < 30 {
		t.Fatalf("tiny scale produced %d recipes, floor is 30", db.Len())
	}
}

// mediumDB caches a moderately sized corpus shared by the statistical
// tests below.
var mediumDB *recipedb.DB

// recipeItems is a recipe's canonical itemset, built from its raw
// names.
func recipeItems(r *recipedb.Recipe) itemset.Set {
	var items []itemset.Item
	for k, names := range [][]string{r.Ingredients, r.Processes, r.Utensils} {
		for _, name := range names {
			items = append(items, itemset.NewItem(name, itemset.Kind(k)))
		}
	}
	return itemset.NewSet(items...)
}

// regionDataset is one region's recipes as a brute-force Dataset.
func regionDataset(db *recipedb.DB, region string) *itemset.Dataset {
	var txns []itemset.Transaction
	for _, r := range db.RegionRecipes(region) {
		txns = append(txns, itemset.Transaction{ID: r.ID, Items: recipeItems(r)})
	}
	return itemset.NewDataset(txns)
}

func getMediumDB(t *testing.T) *recipedb.DB {
	t.Helper()
	if mediumDB == nil {
		db, err := Generate(Config{Seed: DefaultSeed, Scale: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		mediumDB = db
	}
	return mediumDB
}

func TestCorpusShapeMatchesSecIII(t *testing.T) {
	db := getMediumDB(t)
	st := recipedb.ComputeStats(db)
	if st.Regions != 26 {
		t.Fatalf("regions = %d", st.Regions)
	}
	// Per-recipe means (paper: ~10 ingredients, ~12 processes, ~3
	// utensils).
	if st.MeanIngredients < 8 || st.MeanIngredients > 13 {
		t.Errorf("mean ingredients = %.2f, want ~10", st.MeanIngredients)
	}
	if st.MeanProcesses < 10 || st.MeanProcesses > 14 {
		t.Errorf("mean processes = %.2f, want ~12", st.MeanProcesses)
	}
	if st.MeanUtensils < 2 || st.MeanUtensils > 4.2 {
		t.Errorf("mean utensils = %.2f, want ~3", st.MeanUtensils)
	}
	// Utensil sparsity ~12.4% of recipes.
	frac := float64(st.RecipesWithoutUtensils) / float64(st.Recipes)
	if frac < 0.10 || frac > 0.15 {
		t.Errorf("missing-utensil fraction = %.3f, want ~0.124", frac)
	}
	// Unique process and utensil vocabularies near the paper's 268 / 69.
	if st.UniqueProcesses < 200 || st.UniqueProcesses > 330 {
		t.Errorf("unique processes = %d, want ~268", st.UniqueProcesses)
	}
	if st.UniqueUtensils < 50 || st.UniqueUtensils > 90 {
		t.Errorf("unique utensils = %d, want ~69", st.UniqueUtensils)
	}
}

func TestRegionSizesProportionalToTableI(t *testing.T) {
	db := getMediumDB(t)
	for _, p := range Profiles() {
		want := int(0.2*float64(p.Recipes) + 0.5)
		got := db.RegionSize(p.Region)
		if got < want-1 || got > want+1 {
			t.Errorf("%s: %d recipes, want ~%d", p.Region, got, want)
		}
	}
}

func TestHeadlinePatternSupports(t *testing.T) {
	// The calibrated corpus must reproduce each region's Table I headline
	// support to within a few points. (Headline *ranking* is asserted in
	// internal/core's calibration test, which owns the significance
	// scorer.)
	db := getMediumDB(t)
	for _, p := range Profiles() {
		ds := regionDataset(db, p.Region)
		items := parseStringPattern(p.IntendedTop[0])
		got := ds.Support(items)
		// Tolerance: calibration slack plus 3 binomial sigmas for the
		// small regions at this scale.
		sigma := 3 * math.Sqrt(p.PaperSupport*(1-p.PaperSupport)/float64(ds.Len()))
		tol := 0.045 + sigma
		if diff := got - p.PaperSupport; diff < -tol || diff > tol {
			t.Errorf("%s: support(%s) = %.3f, paper %.2f (tol %.3f)", p.Region, p.IntendedTop[0], got, p.PaperSupport, tol)
		}
	}
}

// parseStringPattern reconstructs an itemset from a "a+b+c" string
// pattern, resolving each name's kind against the known process/utensil
// tables (everything else is an ingredient).
func parseStringPattern(s string) itemset.Set {
	procNames := map[string]bool{"add": true, "heat": true, "cook": true, "bake": true, "preheat": true,
		"stir": true, "mix": true, "pour": true, "place": true, "serve": true}
	uteNames := map[string]bool{"oven": true, "bowl": true, "skillet": true, "wok": true}
	var items []itemset.Item
	for _, name := range strings.Split(s, "+") {
		switch {
		case procNames[name]:
			items = append(items, itemset.NewItem(name, itemset.Process))
		case uteNames[name]:
			items = append(items, itemset.NewItem(name, itemset.Utensil))
		default:
			items = append(items, itemset.NewItem(name, itemset.Ingredient))
		}
	}
	return itemset.NewSet(items...)
}

func TestPatternCountShape(t *testing.T) {
	// The Table I pattern-count *shape* must hold: the spice-belt rows
	// (Northern Africa, Indian Subcontinent) mine the most patterns, the
	// staple-driven rows (Australian, Canadian, Caribbean, Mexican) the
	// fewest.
	db := getMediumDB(t)
	counts := make(map[string]int)
	v := db.Vocab()
	for row, region := range db.Regions() {
		counts[region] = len(eclat.MineIndex(itemset.NewIndex(v.Items(), v.Region(row)), 0.2))
	}
	rich := []string{"Northern Africa", "Indian Subcontinent"}
	sparse := []string{"Australian", "Canadian", "Caribbean", "Mexican"}
	for _, r := range rich {
		for _, s := range sparse {
			if counts[r] <= counts[s] {
				t.Errorf("pattern count of %s (%d) should exceed %s (%d)", r, counts[r], s, counts[s])
			}
		}
	}
	// At this reduced scale (n~322 for Northern Africa) the 0.21-support
	// souk triples flicker around the threshold, so the absolute count
	// runs well below the full-scale ~100 (see EXPERIMENTS.md).
	if counts["Northern Africa"] < 55 {
		t.Errorf("Northern Africa mined only %d patterns", counts["Northern Africa"])
	}
	if counts["Australian"] > 60 {
		t.Errorf("Australian mined %d patterns, expected a sparse row", counts["Australian"])
	}
}

func TestSharedSignatureItems(t *testing.T) {
	// Signature sharing that the clustering experiments depend on.
	db := getMediumDB(t)
	support := func(region, name string) float64 {
		return regionDataset(db, region).Support(itemset.FromNames(itemset.Ingredient, name))
	}
	// Soy sauce across East Asia, absent from Europe.
	for _, r := range []string{"Chinese and Mongolian", "Japanese", "Korean"} {
		if support(r, "soy sauce") < 0.2 {
			t.Errorf("%s soy sauce support too low", r)
		}
	}
	if support("French", "soy sauce") > 0.05 {
		t.Error("French soy sauce support should be negligible")
	}
	// Fish sauce across mainland Southeast Asia.
	for _, r := range []string{"Thai", "Southeast Asian"} {
		if support(r, "fish sauce") < 0.2 {
			t.Errorf("%s fish sauce support too low", r)
		}
	}
	// Olive oil around the Mediterranean.
	for _, r := range []string{"Greek", "Italian", "Spanish and Portuguese", "Middle Eastern"} {
		if support(r, "olive oil") < 0.2 {
			t.Errorf("%s olive oil support too low", r)
		}
	}
	// Cumin links India and Northern Africa (the Sec. VII claim).
	for _, r := range []string{"Indian Subcontinent", "Northern Africa"} {
		if support(r, "cumin") < 0.15 {
			t.Errorf("%s cumin support too low", r)
		}
	}
	if support("Thai", "cumin") > 0.1 {
		t.Error("Thai cumin should be low (India clusters with North Africa, not Thai)")
	}
	// Canada's French affinity: shared band items.
	for _, name := range []string{"thyme", "white wine", "dijon mustard", "mushroom"} {
		if support("Canadian", name) < 0.15 || support("French", name) < 0.15 {
			t.Errorf("Canada/France shared item %q too weak", name)
		}
	}
}

func TestTailNameGeneratorsUnique(t *testing.T) {
	for name, gen := range map[string]func(int) string{
		"ingredient": TailIngredientName,
		"process":    TailProcessName,
		"utensil":    TailUtensilName,
	} {
		n := 20000
		if name == "process" {
			n = 300
		}
		if name == "utensil" {
			n = 120
		}
		seen := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			v := gen(i)
			if v == "" {
				t.Fatalf("%s name %d empty", name, i)
			}
			if seen[v] {
				t.Fatalf("%s name %d duplicates %q", name, i, v)
			}
			seen[v] = true
		}
	}
}

func TestRecipesValidate(t *testing.T) {
	db, err := Generate(Config{Seed: 5, Scale: 0.01, Regions: []string{"UK", "US"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Len(); i++ {
		if err := db.Recipe(i).Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubThresholdPoolsStayBelowBand(t *testing.T) {
	// Pool items must never reach the 0.2 mining band (they exist for the
	// authenticity matrix only). Verify for a pool-only item.
	db := getMediumDB(t)
	// "star anise" is bundled in Chinese; in Japanese it comes only from
	// the eastasia pool.
	sup := regionDataset(db, "Japanese").Support(itemset.FromNames(itemset.Ingredient, "star anise"))
	if sup >= 0.2 {
		t.Fatalf("pool item reached mining band: %.3f", sup)
	}
	if sup == 0 {
		t.Fatal("pool item absent entirely")
	}
}

func TestBoosterProcessesRegionUnique(t *testing.T) {
	// The region-specific booster bundles must not share processes across
	// regions — shared boosters would fake cross-region pattern overlap
	// (the failure mode that motivated their design; see DESIGN.md §6).
	owner := make(map[string]string)
	for i, p := range Profiles() {
		for _, b := range regionBoost(i, p.Boost) {
			for _, it := range b.Items {
				if prev, ok := owner[it.Name]; ok && prev != p.Region {
					t.Fatalf("booster process %q shared by %s and %s", it.Name, prev, p.Region)
				}
				owner[it.Name] = p.Region
			}
		}
	}
}

func TestSpiceBeltTriplesIdenticalAcrossProfiles(t *testing.T) {
	// India and Northern Africa must plant the exact same shared triples
	// (that identity is what their Euclidean-space pairing relies on).
	in, err := ProfileFor("Indian Subcontinent")
	if err != nil {
		t.Fatal(err)
	}
	na, err := ProfileFor("Northern Africa")
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(b Bundle) string {
		names := make([]string, len(b.Items))
		for i, it := range b.Items {
			names[i] = it.Name
		}
		sort.Strings(names)
		return strings.Join(names, "+")
	}
	bundleSet := func(p Profile) map[string]bool {
		out := map[string]bool{}
		for _, b := range p.Bundles {
			out[keyOf(b)] = true
		}
		return out
	}
	inSet, naSet := bundleSet(in), bundleSet(na)
	shared := 0
	for k := range inSet {
		if naSet[k] {
			shared++
		}
	}
	if shared < len(spiceBeltTriples) {
		t.Fatalf("only %d shared bundles between India and Northern Africa, want >= %d",
			shared, len(spiceBeltTriples))
	}
}

func TestBundleItemsNotInBand(t *testing.T) {
	// Calibration rule: an item must not appear in both a region's band
	// and its bundles unless deliberately stacked (only the US oven does
	// this, to hit its 0.46 support).
	allowed := map[string]bool{"US/oven": true}
	for _, p := range Profiles() {
		band := map[string]bool{}
		for _, ip := range p.Band {
			band[ip.Item.Name] = true
		}
		for _, b := range p.Bundles {
			for _, it := range b.Items {
				if band[it.Name] && !allowed[p.Region+"/"+it.Name] {
					t.Errorf("%s: item %q in both band and bundle", p.Region, it.Name)
				}
			}
		}
	}
}

// TestGenerateParallelEquivalence checks the parallel fan-out contract:
// the corpus is byte-identical whatever the worker count, because each
// region draws from its own seed-derived RNG stream and batches are
// concatenated in canonical profile order. The vocabulary is identical
// too.
func TestGenerateParallelEquivalence(t *testing.T) {
	seq, err := Generate(Config{Seed: DefaultSeed, Scale: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGeneratedVocab(t, seq)
	for _, workers := range []int{4, 8, 0} {
		par, err := Generate(Config{Seed: DefaultSeed, Scale: 0.05, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Vocab(), par.Vocab()) {
			t.Fatalf("workers=%d: vocabulary differs from the sequential one", workers)
		}
		sr, pr := seq.Recipes(), par.Recipes()
		if len(sr) != len(pr) {
			t.Fatalf("workers=%d: %d recipes vs %d sequential", workers, len(pr), len(sr))
		}
		for i := range sr {
			if !reflect.DeepEqual(sr[i], pr[i]) {
				t.Fatalf("workers=%d: recipe %d differs:\nseq: %+v\npar: %+v", workers, i, sr[i], pr[i])
			}
		}
	}
}
