// Package itemset defines the transaction model the whole pipeline is built
// on. Following Sec. III of the paper, a recipe is an unordered set of
// items, where an item is an ingredient, a cooking process, or a utensil.
// The package provides canonical (sorted, de-duplicated) itemsets, the
// paper's "string pattern" encoding used for label encoding and
// vectorization, and the set algebra the miners and the clustering
// pipelines need.
package itemset

import (
	"fmt"
	"strings"
)

// Kind classifies an item as an ingredient, process, or utensil. RecipeDB
// distinguishes the three (Sec. III); the miners treat them uniformly, but
// the authenticity pipeline (Fig. 5) restricts itself to ingredients, and
// corpus statistics are reported per kind.
type Kind uint8

const (
	// Ingredient is a food item, e.g. "soy sauce".
	Ingredient Kind = iota
	// Process is a cooking action, e.g. "heat".
	Process
	// Utensil is cooking equipment, e.g. "skillet".
	Utensil
	numKinds
)

// Kinds lists all item kinds in canonical order.
func Kinds() []Kind { return []Kind{Ingredient, Process, Utensil} }

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case Ingredient:
		return "ingredient"
	case Process:
		return "process"
	case Utensil:
		return "utensil"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of Kinds.
func (k Kind) Valid() bool { return k < numKinds }

// ParseKind parses a kind name as produced by Kind.String. It accepts any
// case and the common plural forms used in CSV headers.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ingredient", "ingredients":
		return Ingredient, nil
	case "process", "processes":
		return Process, nil
	case "utensil", "utensils":
		return Utensil, nil
	default:
		return 0, fmt.Errorf("itemset: unknown kind %q", s)
	}
}

// Item is a single named entity appearing in recipes. Names are stored in
// canonical form (lowercase, single-spaced); use NewItem to construct.
type Item struct {
	Name string
	Kind Kind
}

// NewItem builds an item with a canonicalized name.
func NewItem(name string, kind Kind) Item {
	return Item{Name: CanonicalName(name), Kind: kind}
}

// String renders the item as its name. Kind is deliberately omitted: the
// paper concatenates ingredients, processes and utensils into one token
// stream before mining (Sec. V.A).
func (it Item) String() string { return it.Name }

// Less orders items by name, breaking ties by kind. This is the canonical
// order used by ItemSet.
func (it Item) Less(other Item) bool {
	if it.Name != other.Name {
		return it.Name < other.Name
	}
	return it.Kind < other.Kind
}

// CanonicalName lowercases and whitespace-normalizes an item name so that
// "Soy Sauce", " soy  sauce " and "soy sauce" coincide. RecipeDB sources
// disagree on casing; the paper's preprocessing folds them together.
func CanonicalName(name string) string {
	return strings.Join(strings.Fields(strings.ToLower(name)), " ")
}
