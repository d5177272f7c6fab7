package recipedb

import (
	"reflect"
	"sort"
	"testing"

	"cuisines/internal/itemset"
)

// mustNormalize is normalize for tables the test knows are consistent.
func mustNormalize(t *testing.T, tbl AliasTable) AliasTable {
	t.Helper()
	out, err := tbl.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAliasResolve(t *testing.T) {
	tbl := mustNormalize(t, AliasTable{"Scallion": "green onion"})
	if got := tbl.Resolve("SCALLION"); got != "green onion" {
		t.Fatalf("Resolve = %q", got)
	}
	if got := tbl.Resolve("onion"); got != "onion" {
		t.Fatalf("identity Resolve = %q", got)
	}
}

func TestNormalizeDropsSelfMappings(t *testing.T) {
	tbl := mustNormalize(t, AliasTable{"onion": "Onion", "scallion": "green onion"})
	if len(tbl) != 1 {
		t.Fatalf("normalize kept self-mapping: %v", tbl)
	}
}

// TestResolveAliasesRejectsConflicts pins that aliases colliding after
// canonicalization must agree on their target: the winner would
// otherwise be whichever map entry came last. Agreeing duplicates are
// fine.
func TestResolveAliasesRejectsConflicts(t *testing.T) {
	db, err := New([]Recipe{{ID: "r1", Region: "Indian Subcontinent", Ingredients: []string{"ghee", "rice"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []AliasTable{
		{"Ghee": "butter", "ghee": "clarified butter"},
		{"ghee": "ghee", "GHEE": "butter"},
	} {
		for i := 0; i < 20; i++ { // map order varies run to run
			if _, err := ResolveAliases(db, tbl); err == nil {
				t.Fatalf("conflicting table %v accepted", tbl)
			}
		}
	}
	resolved, err := ResolveAliases(db, AliasTable{"Ghee": "Clarified Butter", "ghee": "clarified butter"})
	if err != nil {
		t.Fatalf("agreeing duplicates rejected: %v", err)
	}
	if got := resolved.Recipe(0).Ingredients; !reflect.DeepEqual(got, []string{"clarified butter", "rice"}) {
		t.Fatalf("resolved ingredients = %v", got)
	}
}

func TestDefaultAliasesWellFormed(t *testing.T) {
	tbl := DefaultAliases()
	canonicalValues := make(map[string]bool)
	for _, v := range tbl {
		canonicalValues[itemset.CanonicalName(v)] = true
	}
	for k, v := range tbl {
		if itemset.CanonicalName(k) != k {
			t.Errorf("alias key %q not canonical", k)
		}
		if k == v {
			t.Errorf("self alias %q", k)
		}
		// No alias chains: values must not themselves be alias keys.
		if _, isKey := tbl[itemset.CanonicalName(v)]; isKey {
			t.Errorf("alias chain: %q -> %q which is also an alias", k, v)
		}
	}
	if len(tbl.Aliases()) != len(tbl) {
		t.Fatal("Aliases() incomplete")
	}
	if !sort.StringsAreSorted(tbl.Aliases()) {
		t.Fatal("Aliases() not sorted")
	}
}

func TestResolveAliasesConsolidatesSupports(t *testing.T) {
	db := mustDB(t, []Recipe{
		{ID: "1", Region: "X", Ingredients: []string{"scallion", "rice"}},
		{ID: "2", Region: "X", Ingredients: []string{"green onion", "rice"}},
		{ID: "3", Region: "X", Ingredients: []string{"Spring Onion"}},
		{ID: "4", Region: "X", Ingredients: []string{"tofu"}},
	})
	resolved, err := ResolveAliases(db, DefaultAliases())
	if err != nil {
		t.Fatal(err)
	}
	v := resolved.Vocab()
	counts := map[string]int{}
	for _, rec := range v.Region(0) {
		for _, id := range rec {
			counts[v.Items()[id].Name]++
		}
	}
	if counts["green onion"] != 3 {
		t.Fatalf("consolidated count = %d of 4 recipes, want 3", counts["green onion"])
	}
	if _, ok := counts["scallion"]; ok {
		t.Fatal("alias name still present after resolution")
	}
}

func TestResolveAliasesCollapsesDuplicates(t *testing.T) {
	db := mustDB(t, []Recipe{
		{ID: "1", Region: "X", Ingredients: []string{"scallion", "green onion", "rice"}},
	})
	resolved, err := ResolveAliases(db, DefaultAliases())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"green onion", "rice"}
	if !reflect.DeepEqual(resolved.Recipe(0).Ingredients, want) {
		t.Fatalf("ingredients = %v", resolved.Recipe(0).Ingredients)
	}
}

func TestResolveAliasesLeavesProcessesAlone(t *testing.T) {
	db := mustDB(t, []Recipe{
		{ID: "1", Region: "X", Ingredients: []string{"rice"}, Processes: []string{"scallion"}},
	})
	resolved, err := ResolveAliases(db, DefaultAliases())
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Recipe(0).Processes[0] != "scallion" {
		t.Fatal("process renamed by ingredient alias table")
	}
}

func TestResolveAliasesPreservesDB(t *testing.T) {
	db := mustDB(t, []Recipe{
		{ID: "1", Region: "X", Ingredients: []string{"scallion"}},
	})
	if _, err := ResolveAliases(db, DefaultAliases()); err != nil {
		t.Fatal(err)
	}
	if db.Recipe(0).Ingredients[0] != "scallion" {
		t.Fatal("original DB mutated")
	}
}
