package eclat

import (
	"math"
	"math/rand"
	"testing"

	"cuisines/internal/itemset"
)

func txn(names ...string) itemset.Transaction {
	return itemset.Transaction{Items: itemset.FromNames(itemset.Ingredient, names...)}
}

func ds(txns ...itemset.Transaction) *itemset.Dataset {
	return itemset.NewDataset(txns)
}

// mine mines a dataset through a fresh index of it.
func mine(d *itemset.Dataset, minSupport float64) []itemset.Pattern {
	return MineIndex(d.Index(), minSupport)
}

func patternMap(ps []itemset.Pattern) map[string]int {
	m := make(map[string]int, len(ps))
	for _, p := range ps {
		m[p.StringPattern()] = p.Count
	}
	return m
}

func TestMineTextbookExample(t *testing.T) {
	// Classic FP-Growth paper example (Han et al. 2000, Table 1),
	// minsup = 3/5.
	d := ds(
		txn("f", "a", "c", "d", "g", "i", "m", "p"),
		txn("a", "b", "c", "f", "l", "m", "o"),
		txn("b", "f", "h", "j", "o"),
		txn("b", "c", "k", "s", "p"),
		txn("a", "f", "c", "e", "l", "p", "m", "n"),
	)
	got := patternMap(mine(d, 0.6))
	want := map[string]int{
		"f": 4, "c": 4, "a": 3, "b": 3, "m": 3, "p": 3,
		"a+c": 3, "a+f": 3, "c+f": 3, "c+m": 3, "a+m": 3, "f+m": 3, "c+p": 3,
		"a+c+f": 3, "a+c+m": 3, "a+f+m": 3, "c+f+m": 3, "a+c+f+m": 3,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d patterns, want %d\ngot: %v", len(got), len(want), got)
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("pattern %q count = %d, want %d", k, got[k], c)
		}
	}
}

func TestEmpty(t *testing.T) {
	if mine(ds(), 0.5) != nil {
		t.Fatal("empty dataset should mine nothing")
	}
}

func TestMineEmptyDataset(t *testing.T) {
	if got := mine(ds(), 0.5); got != nil {
		t.Fatalf("empty dataset mined %v", got)
	}
	if got := MineIndex(ds(itemset.Transaction{}, itemset.Transaction{}).Index(), 0.5); got != nil {
		t.Fatalf("empty transactions mined %v", got)
	}
}

func TestEmptyAndTrivial(t *testing.T) {
	if mine(ds(), 0.5) != nil {
		t.Fatal("empty dataset should mine nothing")
	}
	m := patternMap(mine(ds(txn("x")), 1.0))
	if len(m) != 1 || m["x"] != 1 {
		t.Fatalf("trivial = %v", m)
	}
}

func TestMineSingleTransaction(t *testing.T) {
	m := patternMap(mine(ds(txn("a", "b")), 1.0))
	if len(m) != 3 || m["a"] != 1 || m["b"] != 1 || m["a+b"] != 1 {
		t.Fatalf("single txn patterns = %v", m)
	}
}

func TestMineSupportBoundary(t *testing.T) {
	// 4 txns; support 0.5 -> minCount 2 exactly.
	d := ds(txn("a", "b"), txn("a"), txn("c"), txn("c"))
	m := patternMap(mine(d, 0.5))
	if m["a"] != 2 || m["c"] != 2 {
		t.Fatalf("boundary supports wrong: %v", m)
	}
	if _, ok := m["b"]; ok {
		t.Fatal("b (count 1) should not be frequent at 0.5")
	}
	if _, ok := m["a+b"]; ok {
		t.Fatal("a+b should not be frequent")
	}
}

func TestMineSupportValuesAreRelative(t *testing.T) {
	d := ds(txn("a"), txn("a"), txn("a"), txn("b"))
	for _, p := range mine(d, 0.5) {
		if p.StringPattern() == "a" && math.Abs(p.Support-0.75) > 1e-12 {
			t.Fatalf("support of a = %v", p.Support)
		}
	}
}

func TestMineAbsoluteThreshold(t *testing.T) {
	d := ds(txn("a"), txn("a"), txn("a"), txn("b"), txn("b"))
	m := patternMap(mine(d, 3)) // absolute count 3
	if _, ok := m["b"]; ok {
		t.Fatal("b has count 2 < 3")
	}
	if m["a"] != 3 {
		t.Fatalf("a count = %d", m["a"])
	}
}

func TestSinglePathDeepCounts(t *testing.T) {
	// Deeper extensions of the one frequent item are infrequent.
	d := ds(txn("a"), txn("a"), txn("a"), txn("a", "b"))
	m := patternMap(mine(d, 0.5))
	if len(m) != 1 || m["a"] != 4 {
		t.Fatalf("patterns = %v", m)
	}
}

func TestDuplicateItemsInTransaction(t *testing.T) {
	// NewSet dedupes, so {a, a} counts a once.
	tr := itemset.Transaction{Items: itemset.NewSet(
		itemset.NewItem("a", itemset.Ingredient),
		itemset.NewItem("a", itemset.Ingredient),
	)}
	m := patternMap(mine(ds(tr, tr), 1.0))
	if m["a"] != 2 || len(m) != 1 {
		t.Fatalf("patterns = %v", m)
	}
}

func TestMixedKindsMinedTogether(t *testing.T) {
	// Sec. V.A: ingredients, processes and utensils concatenated.
	tr := itemset.Transaction{Items: itemset.NewSet(
		itemset.NewItem("soy sauce", itemset.Ingredient),
		itemset.NewItem("heat", itemset.Process),
		itemset.NewItem("wok", itemset.Utensil),
	)}
	m := patternMap(mine(ds(tr, tr), 1.0))
	if m["heat+soy sauce+wok"] != 2 {
		t.Fatalf("mixed-kind pattern missing: %v", m)
	}
}

// randomDataset draws nTxn transactions of 1..maxLen ingredients from
// the first alphabet letters (duplicates collapse).
func randomDataset(r *rand.Rand, nTxn, alphabet, maxLen int) *itemset.Dataset {
	txns := make([]itemset.Transaction, nTxn)
	for i := range txns {
		n := 1 + r.Intn(maxLen)
		var items []itemset.Item
		for j := 0; j < n; j++ {
			items = append(items, itemset.NewItem(string(rune('a'+r.Intn(alphabet))), itemset.Ingredient))
		}
		txns[i] = itemset.Transaction{Items: itemset.NewSet(items...)}
	}
	return ds(txns...)
}

// bruteForce mines by explicit subset enumeration over observed
// itemsets, each counted by a full Dataset scan: the oracle for
// TestMineMatchesBruteForceProperty (small transactions only).
func bruteForce(d *itemset.Dataset, minSupport float64) map[string]int {
	minCount := d.MinCount(minSupport)
	seen := make(map[string]itemset.Set)
	for _, t := range d.Transactions() {
		items := t.Items.Items()
		n := len(items)
		for mask := 1; mask < 1<<n; mask++ {
			var sub []itemset.Item
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					sub = append(sub, items[b])
				}
			}
			s := itemset.NewSet(sub...)
			seen[s.Key()] = s
		}
	}
	out := make(map[string]int)
	for _, s := range seen {
		if c := d.SupportCount(s); c >= minCount {
			out[itemset.StringPattern(s)] = c
		}
	}
	return out
}

func TestMineMatchesBruteForceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		d := randomDataset(r, 5+r.Intn(20), 6, 5)
		sup := []float64{0.2, 0.3, 0.5}[r.Intn(3)]
		got := patternMap(mine(d, sup))
		want := bruteForce(d, sup)
		if len(got) != len(want) {
			t.Fatalf("trial %d sup %v: %d patterns, oracle %d\ngot %v\nwant %v",
				trial, sup, len(got), len(want), got, want)
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("trial %d: pattern %q count %d, oracle %d", trial, k, got[k], c)
			}
		}
	}
}

func TestMineAntiMonotoneProperty(t *testing.T) {
	// Every subset of a mined pattern must also be mined, with >= count.
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		ps := mine(randomDataset(r, 20, 5, 6), 0.25)
		m := patternMap(ps)
		for _, p := range ps {
			items := p.Items.Items()
			for skip := range items {
				var sub []itemset.Item
				for i, it := range items {
					if i != skip {
						sub = append(sub, it)
					}
				}
				if len(sub) == 0 {
					continue
				}
				key := itemset.StringPattern(itemset.NewSet(sub...))
				c, ok := m[key]
				if !ok {
					t.Fatalf("subset %q of %q missing", key, p.StringPattern())
				}
				if c < p.Count {
					t.Fatalf("subset %q count %d < superset %d", key, c, p.Count)
				}
			}
		}
	}
}

func TestMineIndexReusesSharedIndex(t *testing.T) {
	// The same prebuilt index mined twice (different thresholds) must
	// match fresh mine calls: the DFS scratch buffers never leak state
	// into the shared bitmaps.
	d := ds(
		txn("a", "b", "c"), txn("a", "b"), txn("a", "c"), txn("b", "c"), txn("a"),
	)
	ix := d.Index()
	for _, sup := range []float64{0.4, 0.6} {
		fresh := patternMap(mine(d, sup))
		shared := patternMap(MineIndex(ix, sup))
		if len(fresh) != len(shared) {
			t.Fatalf("sup=%g: fresh %d patterns, shared index %d", sup, len(fresh), len(shared))
		}
		for k, c := range fresh {
			if shared[k] != c {
				t.Fatalf("sup=%g: %q fresh count %d, shared %d", sup, k, c, shared[k])
			}
		}
	}
}

// TestSteadyStateAllocations is the regression guard on the pooled DFS
// scratch: once the sync.Pool is warm, a mining run may allocate its
// output (pattern construction is ~8 allocations per pattern: the item
// slice, the canonicalizing NewSet copy and sort machinery, plus
// amortized slice growth) but nothing proportional to the lattice
// nodes visited. Reintroducing a per-candidate intersection buffer
// trips the bound immediately.
func TestSteadyStateAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	txns := make([]itemset.Transaction, 1500)
	for i := range txns {
		var items []itemset.Item
		for j := 0; j < 14; j++ {
			if r.Float64() < 0.4 {
				items = append(items, itemset.NewItem(string(rune('a'+j)), itemset.Ingredient))
			}
		}
		txns[i] = itemset.Transaction{Items: itemset.NewSet(items...)}
	}
	ix := itemset.NewDataset(txns).Index()
	patterns := MineIndex(ix, 0.1)
	if len(patterns) == 0 {
		t.Fatal("fixture mined no patterns")
	}
	MineIndex(ix, 0.1) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() { MineIndex(ix, 0.1) })
	// Measured steady state: ~7.9 allocs/pattern (Go 1.24). The bound
	// leaves ~20% headroom for toolchain drift while still catching any
	// per-node allocation, which adds O(candidates tried) on top.
	if maxAllocs := 9.5*float64(len(patterns)) + 50; allocs > maxAllocs {
		t.Errorf("steady-state mine: %.0f allocs for %d patterns, want <= %.0f — per-node scratch is leaking out of the pool",
			allocs, len(patterns), maxAllocs)
	}
}
