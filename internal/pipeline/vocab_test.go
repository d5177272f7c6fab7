package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cuisines/internal/artifact"
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

// TestGeneratedCorpusPin pins the generator, which draws interned item
// ids and hands recipedb their vocabulary: in every cell the vocabulary
// equals the one recipedb builds from the recipes alone, and the corpus
// frame hashes to the golden recorded before the generator drew ids,
// so the RNG draw order, list order, IDs and names are unchanged.
func TestGeneratedCorpusPin(t *testing.T) {
	golden := []struct {
		seed  uint64
		scale float64
		sum   string
	}{
		{1, 0.05, "09d842013a3d56f4d203c897c55e721b277f7896b6733fbc8acf9b75ec0845ae"},
		{1, 0.08, "712c73f0694e449bd67dd89cdca79c79253bbfbb6f850ae49241e86b3d034321"},
		{1, 0.5, "b552bd32acc49d799e631819f6e12aa7798678a180abf35d6beccb743f07ccb7"},
		{1, 1, "34c6eb1cc98e8119e569a7a3b0fc7cfb5932c1905563749bb6004530e2223ade"},
		{7, 0.05, "fae5d26a3292a5e457db1eba1d929547f240cf3e9957663ff016b01e49e7a6e1"},
		{7, 0.08, "cb18a7fcd2ada7ca562a34426358dcdc8afe9f5d0e5a243713f7f2912f60cc03"},
		{7, 0.5, "fed2b86ce79de4d5ea49b7282d62f4bd706441b5bef2f677a87dd945597b9b17"},
		{7, 1, "ebaaaf9da0a312cb3e57448e34700cba6983d9879a273b6ce38b88351a9bb49f"},
		{corpus.DefaultSeed, 0.05, "ceeb0511235ddfc3bada8776f874c0b43ed9a0bd59863e56d0e138e72dee4f95"},
		{corpus.DefaultSeed, 0.08, "aad959fca1ae66e81234b970ec19ace77114422f74d40965eef6fb17ccbd7f80"},
		{corpus.DefaultSeed, 0.5, "69d8a0023bb2b1120f35d9e5b4dea475ae02023df55486035cc70bb21f9b2ca3"},
		{corpus.DefaultSeed, 1, "eadbe5df8899873a81c1c2a81aa10ca69e38aa4b8ce9cedc9a8d2e002918491e"},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("seed=%d/scale=%v", g.seed, g.scale), func(t *testing.T) {
			if g.scale == 1 && testing.Short() {
				t.Skip("full scale skipped in -short mode")
			}
			db, err := corpus.Generate(corpus.Config{Seed: g.seed, Scale: g.scale})
			if err != nil {
				t.Fatal(err)
			}
			built, err := recipedb.New(db.Recipes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(db.Vocab(), built.Vocab()) {
				t.Fatal("generated vocabulary differs from the one built from the recipes")
			}
			frame, err := artifact.EncodeFrame(corpusCodec, db)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(frame); hex.EncodeToString(sum[:]) != g.sum {
				t.Fatalf("corpus frame sha256 %x, golden %s", sum, g.sum)
			}
		})
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
