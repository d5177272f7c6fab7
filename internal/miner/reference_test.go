package miner_test

import (
	"sort"
	"sync"
	"testing"

	"cuisines/internal/corpus"
	"cuisines/internal/itemset"
	"cuisines/internal/recipedb"
)

// referenceMine is the oracle Eclat is pinned to: a level-wise miner
// (Agrawal & Srikant 1994) that shares no code with itemset.Index or
// Eclat. Level k's candidates are joins of two frequent (k-1)-sets that
// agree on their first k-2 items, and every candidate is counted by a
// full Dataset.SupportCount scan.
func referenceMine(d *itemset.Dataset, minSupport float64) []itemset.Pattern {
	if d.Len() == 0 {
		return nil
	}
	minCount := d.MinCount(minSupport)
	var out []itemset.Pattern
	frequent := func(s itemset.Set) bool {
		c := d.SupportCount(s)
		if c < minCount {
			return false
		}
		out = append(out, itemset.Pattern{Items: s, Count: c, Support: float64(c) / float64(d.Len())})
		return true
	}

	var items []itemset.Item
	for it := range d.ItemCounts() {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Less(items[j]) })
	// level holds the frequent k-sets in lexicographic item order, so
	// the sets sharing a (k-1)-prefix are adjacent.
	var level []itemset.Set
	for _, it := range items {
		if s := itemset.NewSet(it); frequent(s) {
			level = append(level, s)
		}
	}
	for k := 1; len(level) > 1; k++ {
		var next []itemset.Set
		for i, a := range level {
			for _, b := range level[i+1:] {
				if !samePrefix(a, b, k-1) {
					break
				}
				if c := a.Add(b.At(k - 1)); frequent(c) {
					next = append(next, c)
				}
			}
		}
		level = next
	}
	itemset.SortPatterns(out)
	return out
}

// samePrefix reports whether a and b agree on their first n items.
func samePrefix(a, b itemset.Set, n int) bool {
	for i := 0; i < n; i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// The Table I support thresholds the corpus agreement tests mine at.
var corpusSupports = []float64{0.2, 0.35}

var (
	corpusOnce sync.Once
	corpusDB   *recipedb.DB
	corpusRef  map[string]map[float64][]itemset.Pattern
	corpusErr  error
)

// corpusReference generates the scale-0.1 corpus once and mines every
// region with the reference miner at each corpus support.
func corpusReference(t *testing.T) (*recipedb.DB, map[string]map[float64][]itemset.Pattern) {
	t.Helper()
	if testing.Short() {
		t.Skip("corpus sweep is slow")
	}
	corpusOnce.Do(func() {
		corpusDB, corpusErr = corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.1})
		if corpusErr != nil {
			return
		}
		corpusRef = map[string]map[float64][]itemset.Pattern{}
		for _, region := range corpusDB.Regions() {
			corpusRef[region] = map[float64][]itemset.Pattern{}
			for _, sup := range corpusSupports {
				corpusRef[region][sup] = referenceMine(corpusDB.RegionDataset(region), sup)
			}
		}
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusDB, corpusRef
}

// textbookDataset is the FP-Growth paper example (Han et al. 2000,
// Table 1); textbookCounts holds its hand-counted patterns at minsup
// 3/5.
func textbookDataset() *itemset.Dataset {
	txn := func(names ...string) itemset.Transaction {
		return itemset.Transaction{Items: itemset.FromNames(itemset.Ingredient, names...)}
	}
	return itemset.NewDataset([]itemset.Transaction{
		txn("f", "a", "c", "d", "g", "i", "m", "p"),
		txn("a", "b", "c", "f", "l", "m", "o"),
		txn("b", "f", "h", "j", "o"),
		txn("b", "c", "k", "s", "p"),
		txn("a", "f", "c", "e", "l", "p", "m", "n"),
	})
}

var textbookCounts = map[string]int{
	"f": 4, "c": 4, "a": 3, "b": 3, "m": 3, "p": 3,
	"a+c": 3, "a+f": 3, "c+f": 3, "c+m": 3, "a+m": 3, "f+m": 3, "c+p": 3,
	"a+c+f": 3, "a+c+m": 3, "a+f+m": 3, "c+f+m": 3, "a+c+f+m": 3,
}

// checkTextbook fails t unless got is exactly textbookCounts.
func checkTextbook(t *testing.T, got []itemset.Pattern) {
	t.Helper()
	if len(got) != len(textbookCounts) {
		t.Fatalf("got %d patterns, want %d: %v", len(got), len(textbookCounts), got)
	}
	for _, p := range got {
		if want := textbookCounts[p.StringPattern()]; want != p.Count {
			t.Fatalf("pattern %q count %d, want %d", p.StringPattern(), p.Count, want)
		}
	}
}

// TestReferenceMineTextbookExample checks the oracle itself against the
// hand-counted example.
func TestReferenceMineTextbookExample(t *testing.T) {
	checkTextbook(t, referenceMine(textbookDataset(), 0.6))
}
