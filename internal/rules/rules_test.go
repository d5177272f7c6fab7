package rules

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cuisines/internal/eclat"
	"cuisines/internal/itemset"
)

func ing(name string) itemset.Item {
	return itemset.NewItem(name, itemset.Ingredient)
}

func txn(names ...string) itemset.Transaction {
	return itemset.Transaction{Items: itemset.FromNames(itemset.Ingredient, names...)}
}

// mineFor mines a small dataset to feed Generate with a real pattern set.
func mineFor(t *testing.T, minSup float64, txns ...itemset.Transaction) []itemset.Pattern {
	t.Helper()
	return eclat.MineIndex(itemset.NewDataset(txns).Index(), minSup)
}

func TestGenerateKnownConfidence(t *testing.T) {
	// soy appears 4x, {soy, rice} 3x -> soy => rice conf 0.75.
	ps := mineFor(t, 0.2,
		txn("soy", "rice"), txn("soy", "rice"), txn("soy", "rice"),
		txn("soy"), txn("miso"),
	)
	rs := Generate(ps, Options{MinConfidence: 0.5})
	var found *Rule
	for i := range rs {
		if rs[i].Antecedent.String() == "soy" && rs[i].Consequent.String() == "rice" {
			found = &rs[i]
		}
	}
	if found == nil {
		t.Fatalf("soy => rice missing: %v", rs)
	}
	if math.Abs(found.Confidence-0.75) > 1e-9 {
		t.Fatalf("confidence = %v", found.Confidence)
	}
	// supp(rice) = 0.6 -> lift = 0.75/0.6 = 1.25.
	if math.Abs(found.Lift-1.25) > 1e-9 {
		t.Fatalf("lift = %v", found.Lift)
	}
	// leverage = 0.6 - 0.8*0.6 = 0.12.
	if math.Abs(found.Leverage-0.12) > 1e-9 {
		t.Fatalf("leverage = %v", found.Leverage)
	}
	// conviction = (1-0.6)/(1-0.75) = 1.6.
	if math.Abs(found.Conviction-1.6) > 1e-9 {
		t.Fatalf("conviction = %v", found.Conviction)
	}
}

func TestGenerateConfidenceOneConviction(t *testing.T) {
	ps := mineFor(t, 0.4, txn("a", "b"), txn("a", "b"), txn("c"))
	rs := Generate(ps, Options{MinConfidence: 0.9})
	if len(rs) == 0 {
		t.Fatal("no rules")
	}
	for _, r := range rs {
		if r.Confidence == 1 && !math.IsInf(r.Conviction, 1) {
			t.Fatalf("conviction for perfect rule = %v", r.Conviction)
		}
	}
}

func TestGenerateMinConfidenceFilters(t *testing.T) {
	ps := mineFor(t, 0.2,
		txn("soy", "rice"), txn("soy"), txn("soy"), txn("soy"), txn("rice"),
	)
	// soy => rice has confidence 0.25.
	rs := Generate(ps, Options{MinConfidence: 0.5})
	for _, r := range rs {
		if r.Antecedent.String() == "soy" && r.Consequent.String() == "rice" {
			t.Fatalf("low-confidence rule survived: %v", r)
		}
	}
}

func TestGenerateMinLiftAndCap(t *testing.T) {
	ps := mineFor(t, 0.1,
		txn("a", "b", "c"), txn("a", "b", "c"), txn("a", "b"), txn("c"), txn("c", "a"),
	)
	all := Generate(ps, Options{MinConfidence: 0.1})
	lifted := Generate(ps, Options{MinConfidence: 0.1, MinLift: 1.2})
	if len(lifted) >= len(all) {
		t.Fatalf("lift filter did nothing: %d vs %d", len(lifted), len(all))
	}
	capped := Generate(ps, Options{MinConfidence: 0.1, MaxRules: 3})
	if len(capped) != 3 {
		t.Fatalf("cap = %d", len(capped))
	}
}

func TestGenerateSortedByConfidence(t *testing.T) {
	ps := mineFor(t, 0.1,
		txn("a", "b"), txn("a", "b"), txn("a", "c"), txn("b"), txn("c", "a"),
	)
	rs := Generate(ps, Options{MinConfidence: 0.1})
	for i := 1; i < len(rs); i++ {
		if rs[i].Confidence > rs[i-1].Confidence+1e-12 {
			t.Fatal("rules not sorted by confidence")
		}
	}
}

func TestGenerateDisjointSides(t *testing.T) {
	ps := mineFor(t, 0.2, txn("a", "b", "c"), txn("a", "b", "c"), txn("a", "b"))
	for _, r := range Generate(ps, Options{MinConfidence: 0.1}) {
		if !r.Antecedent.Intersect(r.Consequent).Empty() {
			t.Fatalf("overlapping rule: %v", r)
		}
		if r.Antecedent.Empty() || r.Consequent.Empty() {
			t.Fatalf("empty side: %v", r)
		}
	}
}

func TestGenerateSkipsSingletons(t *testing.T) {
	ps := []itemset.Pattern{{Items: itemset.NewSet(ing("a")), Support: 0.5}}
	if rs := Generate(ps, Options{}); len(rs) != 0 {
		t.Fatalf("rules from singleton: %v", rs)
	}
}

func TestFilters(t *testing.T) {
	ps := mineFor(t, 0.2, txn("a", "b"), txn("a", "b"), txn("b"))
	rs := Generate(ps, Options{MinConfidence: 0.1})
	forB := ForConsequent(rs, ing("b"))
	for _, r := range forB {
		if !r.Consequent.Contains(ing("b")) {
			t.Fatal("ForConsequent filter broken")
		}
	}
	fromA := ForAntecedent(rs, ing("a"))
	if len(fromA) == 0 {
		t.Fatal("ForAntecedent empty")
	}
	for _, r := range fromA {
		if !r.Antecedent.Contains(ing("a")) {
			t.Fatal("ForAntecedent filter broken")
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: itemset.FromNames(itemset.Ingredient, "soy"),
		Consequent: itemset.FromNames(itemset.Ingredient, "rice"),
		Confidence: 0.8, Lift: 1.5,
	}
	s := r.String()
	if !strings.Contains(s, "soy => rice") || !strings.Contains(s, "0.80") {
		t.Fatalf("render: %q", s)
	}
}

// Property: on random datasets, every generated rule's measures are
// consistent with supports recomputed directly from the data.
func TestGenerateMeasuresConsistentProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		var txns []itemset.Transaction
		n := 10 + r.Intn(20)
		for i := 0; i < n; i++ {
			var names []string
			for j := 0; j <= r.Intn(4); j++ {
				names = append(names, string(rune('a'+r.Intn(5))))
			}
			txns = append(txns, txn(names...))
		}
		ds := itemset.NewDataset(txns)
		ps := eclat.MineIndex(ds.Index(), 0.15)
		for _, rule := range Generate(ps, Options{MinConfidence: 0.3}) {
			union := rule.Antecedent.Union(rule.Consequent)
			wantSupp := ds.Support(union)
			if math.Abs(rule.Support-wantSupp) > 1e-9 {
				t.Fatalf("support mismatch for %v: %v vs %v", rule, rule.Support, wantSupp)
			}
			wantConf := wantSupp / ds.Support(rule.Antecedent)
			if math.Abs(rule.Confidence-wantConf) > 1e-9 {
				t.Fatalf("confidence mismatch for %v", rule)
			}
			if rule.Confidence < 0.3-1e-12 {
				t.Fatalf("below-threshold rule: %v", rule)
			}
			wantLift := wantConf / ds.Support(rule.Consequent)
			if math.Abs(rule.Lift-wantLift) > 1e-9 {
				t.Fatalf("lift mismatch for %v", rule)
			}
		}
	}
}
