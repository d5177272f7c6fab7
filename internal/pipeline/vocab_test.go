package pipeline

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cuisines/internal/authenticity"
	"cuisines/internal/corpus"
	"cuisines/internal/itemset"
	"cuisines/internal/recipedb"
)

// TestVocabMatchesBruteForce pins recipedb.Vocab, which the mine, auth,
// stats and pairing paths all read, to a reference built from raw
// names through itemset.NewItem: the item order, each recipe's item
// set, every region × item count (as the prevalence authenticity.Build
// tallies from the vocabulary), and the bitmap index the mine stage
// builds per region. It runs over several corpus seeds, fuzzDB, and
// recipes spelling items with case, spacing and Unicode variants,
// repeated within a recipe and shared across kinds.
func TestVocabMatchesBruteForce(t *testing.T) {
	dbs := map[string]*recipedb.DB{"fuzzDB": fuzzDB(t)}
	for _, seed := range []uint64{1, 2, 3} {
		db, err := corpus.Generate(corpus.Config{Seed: seed, Scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		dbs[fmt.Sprintf("corpus seed %d", seed)] = db
	}
	variants, err := recipedb.New([]recipedb.Recipe{
		{ID: "1", Region: "B", Ingredients: []string{"Soy Sauce", " soy  sauce ", "rice", "SOY SAUCE"}, Processes: []string{"Cream", "boil", "boil"}},
		{ID: "2", Region: "A", Ingredients: []string{"cream", "Crème Fraîche", "\tcrème\nfraîche"}, Utensils: []string{"Pot", "pot", "POT"}},
		{ID: "3", Region: "B", Ingredients: []string{"soy sauce"}, Processes: []string{"cream"}, Utensils: []string{"wok"}},
		{ID: "4", Region: "A", Ingredients: []string{"rice", "Rice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dbs["variants"] = variants
	for name, db := range dbs {
		checkVocab(t, name, db)
	}
}

func checkVocab(t *testing.T, name string, db *recipedb.DB) {
	t.Helper()
	v := db.Vocab()
	sets := make([]itemset.Set, db.Len())
	held := map[itemset.Item]bool{}
	for i := range sets {
		r := db.Recipe(i)
		var items []itemset.Item
		for k, names := range [][]string{r.Ingredients, r.Processes, r.Utensils} {
			for _, n := range names {
				items = append(items, itemset.NewItem(n, itemset.Kind(k)))
			}
		}
		sets[i] = itemset.NewSet(items...)
		for _, it := range sets[i].Items() {
			held[it] = true
		}
	}
	var items []itemset.Item
	for it := range held {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Less(items[j]) })
	if !reflect.DeepEqual(v.Items(), items) {
		t.Fatalf("%s: vocabulary items %v\nreference %v", name, v.Items(), items)
	}

	for i, s := range sets {
		var got []itemset.Item
		for _, id := range v.Recipe(i) {
			got = append(got, items[id])
		}
		if !reflect.DeepEqual(got, s.Items()) {
			t.Fatalf("%s: recipe %d holds %v, reference %v", name, i, got, s.Items())
		}
	}

	// Every item of every kind is a column of this matrix, so its
	// prevalences are the region counts over region sizes.
	auth, err := authenticity.Build(db, authenticity.Options{Kinds: itemset.Kinds()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auth.Items, items) {
		t.Fatalf("%s: authenticity columns differ from the reference items", name)
	}
	recipeOf := map[string]int{}
	for i := range sets {
		recipeOf[db.Recipe(i).ID] = i
	}
	for row, region := range db.Regions() {
		var txns []itemset.Transaction
		counts := map[itemset.Item]int{}
		for _, r := range db.RegionRecipes(region) {
			s := sets[recipeOf[r.ID]]
			txns = append(txns, itemset.Transaction{ID: r.ID, Items: s})
			for _, it := range s.Items() {
				counts[it]++
			}
		}
		for col, it := range auth.Items {
			if got, want := auth.Prevalence.At(row, col), float64(counts[it])/float64(len(txns)); got != want {
				t.Fatalf("%s: %s prevalence of %v is %v, reference %v", name, region, it, got, want)
			}
		}
		ix, ref := itemset.NewIndex(v.Items(), v.Region(row)), itemset.NewDataset(txns).Index()
		if ix.NumTransactions() != ref.NumTransactions() || ix.NumItems() != ref.NumItems() {
			t.Fatalf("%s: %s index has %d transactions, %d items; reference %d, %d",
				name, region, ix.NumTransactions(), ix.NumItems(), ref.NumTransactions(), ref.NumItems())
		}
		for id := int32(0); int(id) < ix.NumItems(); id++ {
			if ix.Item(id) != ref.Item(id) || ix.Count(id) != ref.Count(id) || !reflect.DeepEqual(ix.ItemBitmap(id), ref.ItemBitmap(id)) {
				t.Fatalf("%s: %s index item %d is %v (count %d), reference %v (count %d), or bitmaps differ",
					name, region, id, ix.Item(id), ix.Count(id), ref.Item(id), ref.Count(id))
			}
		}
	}
}
