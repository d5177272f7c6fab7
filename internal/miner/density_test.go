package miner_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cuisines/internal/itemset"
	"cuisines/internal/miner"
)

// TestEclatAgreesOnRandomDensityRegimes holds Eclat to the reference
// miner on synthetic datasets spanning the density regimes of its
// bitmap intersections: near-universal items (mostly-full words),
// mid-frequency items, rare items (mostly-empty words), and a
// 70,000-transaction universe over a thousand words wide.
func TestEclatAgreesOnRandomDensityRegimes(t *testing.T) {
	r := rand.New(rand.NewSource(20200808))
	type regime struct {
		nTxn  int
		probs []float64 // per-item transaction membership probability
	}
	regimes := []regime{
		{nTxn: 40, probs: []float64{0.9, 0.7, 0.5, 0.3, 0.3, 0.1}},
		{nTxn: 800, probs: []float64{0.95, 0.6, 0.4, 0.2, 0.1, 0.05, 0.05, 0.01}},
		{nTxn: 5000, probs: []float64{0.9, 0.5, 0.3, 0.08, 0.03, 0.01, 0.005}},
		{nTxn: 70_000, probs: []float64{0.7, 0.4, 0.35, 0.1, 0.02}},
	}
	sups := []float64{0.05, 0.15, 0.3}
	for ri, rg := range regimes {
		d := densityDataset(r, rg.nTxn, rg.probs)
		sup := sups[ri%len(sups)]
		got := miner.Eclat.Mine(d.Index(), sup)
		if want := referenceMine(d, sup); !reflect.DeepEqual(got, want) {
			t.Errorf("regime %d sup %g: eclat mined %d patterns, reference %d, or they differ",
				ri, sup, len(got), len(want))
		}
	}
}

// densityDataset draws nTxn transactions in which item j appears with
// probability probs[j].
func densityDataset(r *rand.Rand, nTxn int, probs []float64) *itemset.Dataset {
	txns := make([]itemset.Transaction, nTxn)
	for i := range txns {
		var items []itemset.Item
		for j, p := range probs {
			if r.Float64() < p {
				items = append(items, itemset.NewItem(string(rune('a'+j)), itemset.Kind(j%3)))
			}
		}
		txns[i] = itemset.Transaction{Items: itemset.NewSet(items...)}
	}
	return itemset.NewDataset(txns)
}
