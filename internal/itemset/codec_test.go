package itemset_test

import (
	"math"
	"testing"

	"cuisines/internal/core"
	"cuisines/internal/itemset"
	"cuisines/internal/pipeline"
)

// The artifact store persists Sets and Patterns inside the mine
// artifact. These tests keep the names of the gob round trips that the
// mine artifact's flat codec replaced, and check the same properties
// through that codec.

func mineRoundTrip(t *testing.T, pats []itemset.Pattern) []itemset.Pattern {
	t.Helper()
	codec := pipeline.Codecs()["mine"]
	in := []core.RegionPatterns{{Region: "r", Recipes: 1000, Patterns: pats}}
	data, err := codec.AppendEncode(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	out := got.([]core.RegionPatterns)
	if len(out) != 1 || len(out[0].Patterns) != len(pats) {
		t.Fatalf("round trip changed pattern count: got %+v", out)
	}
	return out[0].Patterns
}

func TestSetGobRoundTrip(t *testing.T) {
	sets := []itemset.Set{
		{},
		itemset.NewSet(itemset.NewItem("salt", itemset.Ingredient)),
		itemset.NewSet(
			itemset.NewItem("soy sauce", itemset.Ingredient),
			itemset.NewItem("heat", itemset.Process),
			itemset.NewItem("wok", itemset.Utensil),
		),
	}
	pats := make([]itemset.Pattern, len(sets))
	for i, s := range sets {
		pats[i] = itemset.Pattern{Items: s, Support: 0.5, Count: 500}
	}
	for i, p := range mineRoundTrip(t, pats) {
		if got, s := p.Items, sets[i]; got.Key() != s.Key() || got.Len() != s.Len() {
			t.Errorf("round trip changed set: got %v, want %v", got, s)
		}
	}
}

func TestPatternGobRoundTrip(t *testing.T) {
	p := itemset.Pattern{
		Items:   itemset.NewSet(itemset.NewItem("rice", itemset.Ingredient), itemset.NewItem("boil", itemset.Process)),
		Support: 0.312345678912345,
		Count:   421,
	}
	got := mineRoundTrip(t, []itemset.Pattern{p})[0]
	if got.Items.Key() != p.Items.Key() || math.Float64bits(got.Support) != math.Float64bits(p.Support) || got.Count != p.Count {
		t.Errorf("round trip changed pattern: got %+v, want %+v", got, p)
	}
}
