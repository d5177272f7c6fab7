package recipedb

import (
	"fmt"
	"sort"

	"cuisines/internal/itemset"
)

// The paper's future-work section notes that its analysis "neither
// considers the state of ingredients nor their aliases" and that future
// analyses should account for them. This file implements that extension:
// an alias table mapping ingredient synonyms to canonical names, and a
// resolution pass over a database. Resolving aliases before mining
// consolidates split supports (e.g. "scallion" + "green onion" recipes
// all count toward one item).

// AliasTable maps alias -> canonical name. Keys and values are stored in
// canonical (lowercase, single-spaced) form.
type AliasTable map[string]string

// DefaultAliases covers the common RecipeDB ingredient synonyms.
func DefaultAliases() AliasTable {
	return AliasTable{
		"scallion":            "green onion",
		"spring onion":        "green onion",
		"cilantro leaves":     "cilantro",
		"fresh coriander":     "cilantro",
		"coriander leaves":    "cilantro",
		"garbanzo bean":       "chickpea",
		"garbanzo beans":      "chickpea",
		"aubergine":           "eggplant",
		"courgette":           "zucchini",
		"capsicum":            "bell pepper",
		"prawn":               "shrimp",
		"prawns":              "shrimp",
		"maize":               "corn",
		"beet root":           "beetroot",
		"curd":                "yogurt",
		"dahi":                "yogurt",
		"ghee":                "clarified butter",
		"powdered sugar":      "confectioners sugar",
		"icing sugar":         "confectioners sugar",
		"corn flour":          "cornstarch",
		"soya sauce":          "soy sauce",
		"shoyu":               "soy sauce",
		"green chilli":        "green chili",
		"red chilli":          "red chili",
		"chilli powder":       "red chili powder",
		"besan":               "gram flour",
		"king prawn":          "shrimp",
		"rocket":              "arugula",
		"coriander seed":      "coriander",
		"spring roll wrapper": "spring roll skin",
	}
}

// normalize returns a copy of the table with canonical keys and values,
// dropping self-mappings. Two aliases that canonicalize to one key must
// agree on its target ("Ghee" -> "butter" next to "ghee" -> "clarified
// butter" is an error), so the result never depends on map order.
func (t AliasTable) normalize() (AliasTable, error) {
	out := make(AliasTable, len(t))
	target := make(map[string]string, len(t)) // self-mappings included
	for _, k := range t.Aliases() {
		ck, cv := itemset.CanonicalName(k), itemset.CanonicalName(t[k])
		if ck == "" {
			continue
		}
		if prev, dup := target[ck]; dup && prev != cv {
			return nil, fmt.Errorf("recipedb: alias %q maps to both %q and %q", ck, prev, cv)
		}
		target[ck] = cv
		if ck != cv {
			out[ck] = cv
		}
	}
	return out, nil
}

// Resolve returns the canonical name for a raw name (following at most
// one alias hop; alias tables are expected to map directly to canonical
// names).
func (t AliasTable) Resolve(name string) string {
	c := itemset.CanonicalName(name)
	if v, ok := t[c]; ok {
		return v
	}
	return c
}

// Aliases returns the alias keys in sorted order.
func (t AliasTable) Aliases() []string {
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ResolveAliases returns a new DB with every ingredient name passed
// through the alias table (processes and utensils are left as-is; the
// paper's alias concern is ingredients). Duplicate ingredients created by
// the resolution are collapsed. A table whose aliases canonicalize to
// one key with different targets is an error.
func ResolveAliases(db *DB, table AliasTable) (*DB, error) {
	t, err := table.normalize()
	if err != nil {
		return nil, err
	}
	out := make([]Recipe, db.Len())
	for i := 0; i < db.Len(); i++ {
		r := *db.Recipe(i)
		seen := make(map[string]bool, len(r.Ingredients))
		resolved := make([]string, 0, len(r.Ingredients))
		for _, name := range r.Ingredients {
			c := t.Resolve(name)
			if !seen[c] {
				seen[c] = true
				resolved = append(resolved, c)
			}
		}
		r.Ingredients = resolved
		out[i] = r
	}
	return New(out)
}
