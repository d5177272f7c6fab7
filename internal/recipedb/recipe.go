// Package recipedb models the RecipeDB substrate of the paper (Sec. III):
// a structured collection of recipes, each with a name, a region
// ("cuisine"), and unordered lists of ingredients, cooking processes and
// utensils. The paper's copy held 118,071 recipes over 26 geo-cultural
// cuisines with 20,280 unique ingredients, 268 processes and 69 utensils;
// this package provides the model, region indexing, CSV/JSONL codecs,
// validation, and the corpus statistics of Sec. III. The data itself is
// produced by internal/corpus (the calibrated synthetic generator that
// substitutes for the non-redistributable scrape).
package recipedb

import (
	"fmt"
	"sort"

	"cuisines/internal/itemset"
)

// Recipe is one RecipeDB entry.
type Recipe struct {
	// ID is a stable unique identifier.
	ID string
	// Name is the display title.
	Name string
	// Region is the geo-cultural cuisine the recipe belongs to (one of
	// the 26 regions of Table I for paper-scale corpora).
	Region string
	// Ingredients, Processes and Utensils are the raw item names. Order
	// is irrelevant; duplicates are tolerated on input and removed when
	// converting to transactions.
	Ingredients []string
	Processes   []string
	Utensils    []string
}

// Items flattens the recipe into a canonical itemset spanning all three
// kinds (the paper concatenates them before mining, Sec. V.A).
func (r *Recipe) Items() itemset.Set {
	items := make([]itemset.Item, 0, len(r.Ingredients)+len(r.Processes)+len(r.Utensils))
	for _, n := range r.Ingredients {
		items = append(items, itemset.NewItem(n, itemset.Ingredient))
	}
	for _, n := range r.Processes {
		items = append(items, itemset.NewItem(n, itemset.Process))
	}
	for _, n := range r.Utensils {
		items = append(items, itemset.NewItem(n, itemset.Utensil))
	}
	return itemset.NewSet(items...)
}

// Transaction converts the recipe to a mining transaction.
func (r *Recipe) Transaction() itemset.Transaction {
	return itemset.Transaction{ID: r.ID, Items: r.Items()}
}

// IngredientSet returns the canonical set of ingredient items only (used
// by the authenticity pipeline, which Fig. 5 bases "dominantly on
// ingredients").
func (r *Recipe) IngredientSet() itemset.Set {
	return itemset.FromNames(itemset.Ingredient, r.Ingredients...)
}

// Validate reports structural problems: empty ID, empty region, or no
// ingredients at all. Missing utensils are explicitly allowed (14,601
// RecipeDB recipes have none).
func (r *Recipe) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("recipedb: recipe with empty ID (name %q)", r.Name)
	}
	if r.Region == "" {
		return fmt.Errorf("recipedb: recipe %s has empty region", r.ID)
	}
	if len(r.Ingredients) == 0 {
		return fmt.Errorf("recipedb: recipe %s has no ingredients", r.ID)
	}
	return nil
}

// DB is an in-memory RecipeDB: the recipes plus a region index.
type DB struct {
	recipes  []Recipe
	byRegion map[string][]int // region -> indexes into recipes
	regions  []string         // sorted region names
}

// New builds a DB from recipes, validating each. The slice is copied.
func New(recipes []Recipe) (*DB, error) {
	cp := make([]Recipe, len(recipes))
	copy(cp, recipes)
	seen := make(map[string]bool, len(cp))
	for i := range cp {
		r := &cp[i]
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("recipedb: duplicate recipe ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	return newValidated(cp), nil
}

// newValidated builds a DB from a recipe slice the caller owns and has
// already validated and de-duplicated — the codec readers check every
// row as they parse (so errors can name the offending line) and must
// not pay for a second full pass here.
func newValidated(recipes []Recipe) *DB {
	db := &DB{
		recipes:  recipes,
		byRegion: make(map[string][]int),
	}
	for i := range db.recipes {
		db.byRegion[db.recipes[i].Region] = append(db.byRegion[db.recipes[i].Region], i)
	}
	db.regions = make([]string, 0, len(db.byRegion))
	for region := range db.byRegion {
		db.regions = append(db.regions, region)
	}
	sort.Strings(db.regions)
	return db
}

// Len returns the total number of recipes.
func (db *DB) Len() int { return len(db.recipes) }

// Regions returns the sorted list of region names.
func (db *DB) Regions() []string { return db.regions }

// NumRegions returns the number of distinct regions.
func (db *DB) NumRegions() int { return len(db.regions) }

// Recipes returns all recipes (the underlying slice; do not modify).
func (db *DB) Recipes() []Recipe { return db.recipes }

// Recipe returns the i-th recipe.
func (db *DB) Recipe(i int) *Recipe { return &db.recipes[i] }

// RegionSize returns the number of recipes in a region (0 if unknown).
func (db *DB) RegionSize(region string) int { return len(db.byRegion[region]) }

// RegionRecipes returns the recipes of one region (copies of the index
// order, recipes shared).
func (db *DB) RegionRecipes(region string) []*Recipe {
	idx := db.byRegion[region]
	out := make([]*Recipe, len(idx))
	for i, j := range idx {
		out[i] = &db.recipes[j]
	}
	return out
}

// RegionDataset converts one region's recipes to a mining dataset — the
// per-cuisine mining input of Sec. V.A.
func (db *DB) RegionDataset(region string) *itemset.Dataset {
	idx := db.byRegion[region]
	txns := make([]itemset.Transaction, 0, len(idx))
	for _, j := range idx {
		txns = append(txns, db.recipes[j].Transaction())
	}
	return itemset.NewDataset(txns)
}

// AllDataset converts the whole DB to one dataset.
func (db *DB) AllDataset() *itemset.Dataset {
	txns := make([]itemset.Transaction, 0, len(db.recipes))
	for i := range db.recipes {
		txns = append(txns, db.recipes[i].Transaction())
	}
	return itemset.NewDataset(txns)
}

// Filter returns a new DB with recipes satisfying keep. Errors cannot
// occur since recipes were already validated.
func (db *DB) Filter(keep func(*Recipe) bool) *DB {
	var out []Recipe
	for i := range db.recipes {
		if keep(&db.recipes[i]) {
			out = append(out, db.recipes[i])
		}
	}
	ndb, err := New(out)
	if err != nil {
		// Unreachable: recipes were validated on construction.
		panic(err)
	}
	return ndb
}

// Sample returns a new DB keeping every k-th recipe per region starting at
// offset 0 — a cheap deterministic downsample for quick examples and
// tests.
func (db *DB) Sample(k int) *DB {
	if k <= 1 {
		return db
	}
	var out []Recipe
	for _, region := range db.regions {
		for i, j := range db.byRegion[region] {
			if i%k == 0 {
				out = append(out, db.recipes[j])
			}
		}
	}
	ndb, err := New(out)
	if err != nil {
		panic(err)
	}
	return ndb
}
