// Package recipedb models the RecipeDB substrate of the paper (Sec. III):
// a structured collection of recipes, each with a name, a region
// ("cuisine"), and unordered lists of ingredients, cooking processes and
// utensils. The paper's copy held 118,071 recipes over 26 geo-cultural
// cuisines with 20,280 unique ingredients, 268 processes and 69 utensils;
// this package provides the model, region indexing, the canonical item
// vocabulary (Vocab), CSV/JSONL codecs,
// validation, and the corpus statistics of Sec. III. The data itself is
// produced by internal/corpus (the calibrated synthetic generator that
// substitutes for the non-redistributable scrape).
package recipedb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

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
	// is irrelevant; duplicates are tolerated on input and collapse into
	// one item in the DB's Vocab.
	Ingredients []string
	Processes   []string
	Utensils    []string
}

// Validate reports structural problems: empty ID, empty region, no
// ingredients at all, or an item name that canonicalises to "" (one of
// white space only, which would otherwise mine as an item named "").
// Missing utensils are explicitly allowed (14,601 RecipeDB recipes have
// none). New runs it on every recipe, so it scans every occurrence of
// every item name; NewChecked keeps all but that scan.
func (r *Recipe) Validate() error {
	if err := r.checkFields(); err != nil {
		return err
	}
	for k, names := range [...][]string{r.Ingredients, r.Processes, r.Utensils} {
		for _, name := range names {
			if BlankName(name) {
				return fmt.Errorf("recipedb: recipe %s has a blank %s name", r.ID, itemset.Kind(k))
			}
		}
	}
	return nil
}

// checkFields is Validate without the item-name scan.
func (r *Recipe) checkFields() error {
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

// BlankName reports whether name canonicalises to "" under
// itemset.CanonicalName, without allocating: a leading printable ASCII
// byte settles it inline.
func BlankName(name string) bool {
	return (name == "" || name[0] <= ' ' || name[0] >= utf8.RuneSelf) && strings.TrimSpace(name) == ""
}

// DB is an in-memory RecipeDB: the recipes plus a region index, and
// their item vocabulary, handed over by the corpus generator or built
// from the recipes on first use.
type DB struct {
	recipes  []Recipe
	byRegion map[string][]int // region -> indexes into recipes
	regions  []string         // sorted region names

	vocabOnce sync.Once
	vocab     *Vocab
}

// New builds a DB from recipes, validating each. The slice is copied.
func New(recipes []Recipe) (*DB, error) {
	cp := make([]Recipe, len(recipes))
	copy(cp, recipes)
	return build(cp, (*Recipe).Validate)
}

// NewChecked builds a DB like New from recipes whose item names have
// been checked once per distinct name rather than once per occurrence.
// It takes ownership of recipes and keeps New's other checks: empty ID,
// empty region, no ingredients, duplicate ID.
//
// A non-nil vocab is the recipes' vocabulary as their producer numbered
// it (NewVocab). NewChecked checks each of its item names once and
// DB.Vocab returns it without building one: the corpus generator knows
// every item before it draws the first recipe. With a nil vocab the
// caller has checked every distinct item name (BlankName), as a corpus
// decoder does over its intern table and a resampler inherits from the
// DB it draws from; the vocabulary is then built on first use.
func NewChecked(recipes []Recipe, vocab *Vocab) (*DB, error) {
	if vocab != nil {
		if err := vocab.check(len(recipes)); err != nil {
			return nil, err
		}
	}
	db, err := build(recipes, (*Recipe).checkFields)
	if err != nil {
		return nil, err
	}
	if vocab != nil {
		v := *vocab
		v.rows = db.regionRows()
		db.vocab = &v
	}
	return db, nil
}

// build runs check on every recipe, rejects duplicate IDs and indexes
// the recipes, which it keeps.
func build(recipes []Recipe, check func(*Recipe) error) (*DB, error) {
	seen := make(map[string]bool, len(recipes))
	for i := range recipes {
		r := &recipes[i]
		if err := check(r); err != nil {
			return nil, err
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("recipedb: duplicate recipe ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	return newValidated(recipes), nil
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
