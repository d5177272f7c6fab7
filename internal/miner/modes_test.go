package miner_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cuisines/internal/itemset"
	"cuisines/internal/miner"
)

// The index-mode equivalence suite: the dense and chunked bitmap
// layouts are pure representation choices, so Eclat must emit the
// reference miner's exact pattern slices from either, and from
// whichever one ModeAuto picks.

var allModes = []itemset.IndexMode{itemset.ModeDense, itemset.ModeChunked, itemset.ModeAuto}

// mineModes mines d through every layout and reports each result that
// differs from the reference.
func mineModes(t *testing.T, what string, d *itemset.Dataset, sup float64, want []itemset.Pattern) {
	t.Helper()
	for _, mode := range allModes {
		ix := itemset.NewIndexMode(d, mode)
		if mode != itemset.ModeAuto && ix.Mode() != mode {
			t.Fatalf("%s: requested mode %v not honored", what, mode)
		}
		if got := miner.Eclat.Mine(ix, sup); !reflect.DeepEqual(got, want) {
			t.Errorf("%s sup %g: eclat over the %v index (%d patterns) differs from the reference (%d)",
				what, sup, mode, len(got), len(want))
		}
	}
}

// TestIndexModesByteIdenticalOnCorpus mines every corpus region through
// each layout at the Table I support thresholds.
func TestIndexModesByteIdenticalOnCorpus(t *testing.T) {
	db, ref := corpusReference(t)
	for _, region := range db.Regions() {
		d := db.RegionDataset(region)
		for _, sup := range corpusSupports {
			mineModes(t, "region "+region, d, sup, ref[region][sup])
		}
	}
}

// TestIndexModesAgreeOnRandomDensityRegimes is the randomized
// counterpart: synthetic datasets spanning the density regimes that
// pick different container forms — near-universal items (dense words /
// bitmap containers), mid-frequency items (array containers near the
// flip threshold), rare items (short arrays) — plus a multi-chunk
// universe.
func TestIndexModesAgreeOnRandomDensityRegimes(t *testing.T) {
	r := rand.New(rand.NewSource(20200808))
	type regime struct {
		nTxn  int
		probs []float64 // per-item transaction membership probability
	}
	regimes := []regime{
		{nTxn: 40, probs: []float64{0.9, 0.7, 0.5, 0.3, 0.3, 0.1}},
		{nTxn: 800, probs: []float64{0.95, 0.6, 0.4, 0.2, 0.1, 0.05, 0.05, 0.01}},
		{nTxn: 5000, probs: []float64{0.9, 0.5, 0.3, 0.08, 0.03, 0.01, 0.005}},
		// Multi-chunk: the universe spans two 2^16-tid chunks.
		{nTxn: 70_000, probs: []float64{0.7, 0.4, 0.35, 0.1, 0.02}},
	}
	sups := []float64{0.05, 0.15, 0.3}
	for ri, rg := range regimes {
		d := densityDataset(r, rg.nTxn, rg.probs)
		sup := sups[ri%len(sups)]
		mineModes(t, "regime "+string(rune('0'+ri)), d, sup, referenceMine(d, sup))
	}
}

// TestAutoModeMatchesExplicitModes pins ModeAuto to being exactly a
// selection between the two explicit layouts on a universe wide enough
// for either: whatever it picks, the mined output is the reference's.
func TestAutoModeMatchesExplicitModes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := densityDataset(r, 2000, []float64{0.8, 0.3, 0.1, 0.02, 0.01})
	mineModes(t, "auto fixture", d, 0.05, referenceMine(d, 0.05))
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
