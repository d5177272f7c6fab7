package miner_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cuisines/internal/core"
	"cuisines/internal/eclat"
	"cuisines/internal/itemset"
	"cuisines/internal/miner"
)

func TestParse(t *testing.T) {
	for _, in := range []string{"", "eclat", " Eclat ", "ECLAT"} {
		m, err := miner.Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if m.Name() != "eclat" || m != miner.Default {
			t.Errorf("Parse(%q) = %q, want the default eclat", in, m.Name())
		}
	}
	for _, in := range []string{"magic", "apriori", "fpgrowth", "fp-growth"} {
		if _, err := miner.Parse(in); err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("Parse(%q) error = %v", in, err)
		}
	}
}

// TestBackendsByteIdenticalOnCorpus holds the two miners, Eclat and
// the reference, to identical output: it mines every region of the
// calibrated corpus through the production path (core.MineRegionsWorkers:
// one index per region, the worker fan-out, Eclat) and requires the
// reference miner's exact pattern slices at both Table I thresholds.
func TestBackendsByteIdenticalOnCorpus(t *testing.T) {
	db, ref := corpusReference(t)
	for _, sup := range corpusSupports {
		mined, err := core.MineRegionsWorkers(db, sup, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(mined) != len(ref) {
			t.Fatalf("sup %g: mined %d regions, reference %d", sup, len(mined), len(ref))
		}
		for _, rp := range mined {
			if want := ref[rp.Region][sup]; !reflect.DeepEqual(rp.Patterns, want) {
				t.Errorf("region %q sup %g: eclat mined %d patterns, reference %d, or they differ",
					rp.Region, sup, len(rp.Patterns), len(want))
			}
		}
	}
}

// randomDataset draws nTxn transactions over a universe of letters, each
// holding up to maxLen items of random kinds (duplicates collapse, so
// transactions may be shorter; minLen 0 allows empty transactions).
func randomDataset(r *rand.Rand, nTxn, universe, minLen, maxLen int) *itemset.Dataset {
	txns := make([]itemset.Transaction, nTxn)
	for i := range txns {
		n := minLen + r.Intn(maxLen-minLen+1)
		var items []itemset.Item
		for j := 0; j < n; j++ {
			items = append(items, itemset.NewItem(
				string(rune('a'+r.Intn(universe))), itemset.Kind(r.Intn(3))))
		}
		txns[i] = itemset.Transaction{Items: itemset.NewSet(items...)}
	}
	return itemset.NewDataset(txns)
}

// TestBackendsAgreeOnRandomDatasets is the randomized agreement
// property between Eclat and the reference: random transaction counts,
// item universes and support thresholds, not just corpus-derived
// shapes, empty transactions included.
func TestBackendsAgreeOnRandomDatasets(t *testing.T) {
	r := rand.New(rand.NewSource(20200426))
	for trial := 0; trial < 60; trial++ {
		nTxn, universe := 1+r.Intn(150), 2+r.Intn(12)
		d := randomDataset(r, nTxn, universe, 0, 1+r.Intn(8))
		sup := []float64{0.1, 0.2, 0.35, 0.5, 0.8}[r.Intn(5)]
		got, want := miner.Eclat.Mine(d.Index(), sup), referenceMine(d, sup)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (txns=%d universe=%d sup=%g): eclat disagrees with the reference\neclat:     %v\nreference: %v",
				trial, nTxn, universe, sup, got, want)
		}
	}
}

// TestEclatAgreesWithReferenceProperty is the small-dataset agreement
// property: a few dozen short transactions over seven letters, where
// supports near the thresholds collide most often. Each trial is also
// mined the way the mine stage mines a region, through an index of the
// recipe vocabulary, from recipes spelling the same items in varied
// case and spacing with repeats.
func TestEclatAgreesWithReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		d := randomDataset(r, 5+r.Intn(25), 7, 1, 6)
		sup := []float64{0.15, 0.25, 0.4}[r.Intn(3)]
		if got, want := miner.Eclat.Mine(d.Index(), sup), referenceMine(d, sup); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d sup %g: eclat %v\nreference %v", trial, sup, got, want)
		}
		ix, ref := vocabCase(t, rand.New(rand.NewSource(int64(trial))), d)
		if got, want := miner.Eclat.Mine(ix, sup), referenceMine(ref, sup); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d sup %g, vocabulary index: eclat %v\nreference %v", trial, sup, got, want)
		}
	}
}

// TestLevelWiseAgreesWithEclatProperty is the level-wise against
// depth-first agreement property on its own seed, entering Eclat
// through eclat.MineIndex on a fresh index rather than the Miner value.
func TestLevelWiseAgreesWithEclatProperty(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		d := randomDataset(r, 5+r.Intn(25), 7, 1, 6)
		sup := []float64{0.15, 0.25, 0.4}[r.Intn(3)]
		if got, want := eclat.MineIndex(d.Index(), sup), referenceMine(d, sup); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d sup %g: eclat %v\nreference %v", trial, sup, got, want)
		}
	}
}

// TestEclatMineTextbookExample runs the mine stage's miner value on the
// hand-counted FP-Growth paper example: the exact table, and the
// reference's exact pattern slice.
func TestEclatMineTextbookExample(t *testing.T) {
	d := textbookDataset()
	got := miner.Eclat.Mine(d.Index(), 0.6)
	checkTextbook(t, got)
	if want := referenceMine(d, 0.6); !reflect.DeepEqual(got, want) {
		t.Fatalf("eclat %v\nreference %v", got, want)
	}
}

// TestSharedIndexMinesLikeReference mines one index at a sequence of
// thresholds that revisits earlier ones: the index is immutable shared
// state, so every run must equal the reference on the dataset.
func TestSharedIndexMinesLikeReference(t *testing.T) {
	txn := func(names ...string) itemset.Transaction {
		return itemset.Transaction{Items: itemset.FromNames(itemset.Ingredient, names...)}
	}
	d := itemset.NewDataset([]itemset.Transaction{
		txn("a", "b", "c"), txn("a", "b"), txn("a", "c"), txn("b", "c"), txn("a"),
	})
	ix := d.Index()
	for _, sup := range []float64{0.4, 0.6, 0.2, 0.4, 1.0, 0.6} {
		if got, want := miner.Eclat.Mine(ix, sup), referenceMine(d, sup); !reflect.DeepEqual(got, want) {
			t.Fatalf("sup=%g: shared index mined %v\nreference %v", sup, got, want)
		}
	}
}
