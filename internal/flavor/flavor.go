// Package flavor implements the flavor-compound substrate behind the
// paper's intellectual lineage: Ahn et al.'s flavor network (reference
// [2], the source of the authenticity metric) and the food-pairing
// analyses of Jain et al. [8] and Singh & Bagler [12]. An ingredient is
// modeled as a set of flavor compounds; the food-pairing statistic of a
// cuisine is the mean number of compounds shared by co-occurring
// ingredient pairs, minus the same mean over frequency-matched random
// pairs (Ahn's ΔN_s). Positive ΔN_s means the cuisine combines
// compound-sharing ingredients (the Western pattern); negative means it
// deliberately pairs ingredients with distinct chemistry (the pattern
// Jain et al. report for Indian cuisine, where "spices form the basis of
// their food pairing").
//
// The compound table is synthetic but chemically shaped: every ingredient
// receives a deterministic compound set whose overlap structure encodes
// the empirical regularities the literature reports — dairy/baked-sweet
// ingredients share large compound vocabularies, spices carry mostly
// distinctive compounds, and the Western comfort pantry has a broad
// shared aroma base. See DESIGN.md §2 for the substitution rationale.
package flavor

import (
	"sort"
	"strings"

	"cuisines/internal/itemset"
	"cuisines/internal/rng"
)

// CompoundID identifies one flavor compound.
type CompoundID uint32

// Category is a coarse chemical family of an ingredient.
type Category int

const (
	CatSpice Category = iota
	CatHerb
	CatDairy
	CatMeat
	CatSeafood
	CatFruit
	CatVegetable
	CatGrain
	CatSweet
	CatFat
	CatSauce
	CatOther
	numCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatSpice:
		return "spice"
	case CatHerb:
		return "herb"
	case CatDairy:
		return "dairy"
	case CatMeat:
		return "meat"
	case CatSeafood:
		return "seafood"
	case CatFruit:
		return "fruit"
	case CatVegetable:
		return "vegetable"
	case CatGrain:
		return "grain"
	case CatSweet:
		return "sweet"
	case CatFat:
		return "fat"
	case CatSauce:
		return "sauce"
	default:
		return "other"
	}
}

// categoryKeywords maps name substrings to categories; first match wins,
// longer/more specific keywords are checked first within a category scan.
var categoryKeywords = []struct {
	kw  string
	cat Category
}{
	{"cumin", CatSpice}, {"coriander", CatSpice}, {"turmeric", CatSpice},
	{"cardamom", CatSpice}, {"clove", CatSpice}, {"cinnamon", CatSpice},
	{"pepper", CatSpice}, {"chili", CatSpice}, {"chilli", CatSpice},
	{"paprika", CatSpice}, {"saffron", CatSpice}, {"fenugreek", CatSpice},
	{"nigella", CatSpice}, {"anise", CatSpice}, {"mace", CatSpice},
	{"nutmeg", CatSpice}, {"caraway", CatSpice}, {"mustard seed", CatSpice},
	{"allspice", CatSpice}, {"sumac", CatSpice}, {"za'atar", CatSpice},
	{"garam masala", CatSpice}, {"ras el hanout", CatSpice}, {"berbere", CatSpice},
	{"five spice", CatSpice}, {"curry powder", CatSpice}, {"ginger", CatSpice},
	{"spice", CatSpice}, {"masala", CatSpice}, {"poppy seed", CatSpice},
	{"fennel seed", CatSpice}, {"sesame seed", CatSpice}, {"long pepper", CatSpice},

	{"basil", CatHerb}, {"oregano", CatHerb}, {"thyme", CatHerb},
	{"rosemary", CatHerb}, {"parsley", CatHerb}, {"cilantro", CatHerb},
	{"mint", CatHerb}, {"dill", CatHerb}, {"sage", CatHerb},
	{"tarragon", CatHerb}, {"marjoram", CatHerb}, {"chive", CatHerb},
	{"bay leaf", CatHerb}, {"curry leaf", CatHerb}, {"lemongrass", CatHerb},
	{"kaffir lime leaf", CatHerb}, {"pandan", CatHerb}, {"shiso", CatHerb},
	{"epazote", CatHerb}, {"herb", CatHerb},

	{"butter", CatDairy}, {"cream", CatDairy}, {"cheese", CatDairy},
	{"milk", CatDairy}, {"yogurt", CatDairy}, {"curd", CatDairy},
	{"quark", CatDairy}, {"ghee", CatDairy}, {"paneer", CatDairy},
	{"mascarpone", CatDairy}, {"ricotta", CatDairy}, {"mozzarella", CatDairy},
	{"feta", CatDairy}, {"gruyere", CatDairy}, {"stilton", CatDairy},
	{"gorgonzola", CatDairy}, {"manchego", CatDairy}, {"brie", CatDairy},
	{"crema", CatDairy}, {"buttermilk", CatDairy},

	{"beef", CatMeat}, {"pork", CatMeat}, {"lamb", CatMeat},
	{"chicken", CatMeat}, {"bacon", CatMeat}, {"ham", CatMeat},
	{"sausage", CatMeat}, {"veal", CatMeat}, {"chorizo", CatMeat},
	{"prosciutto", CatMeat}, {"pancetta", CatMeat}, {"kielbasa", CatMeat},
	{"merguez", CatMeat}, {"andouille", CatMeat}, {"lardon", CatMeat},
	{"pudding", CatMeat}, {"short rib", CatMeat}, {"mincemeat", CatMeat},

	{"fish", CatSeafood}, {"shrimp", CatSeafood}, {"prawn", CatSeafood},
	{"anchovy", CatSeafood}, {"salmon", CatSeafood}, {"herring", CatSeafood},
	{"mussels", CatSeafood}, {"clams", CatSeafood}, {"salt cod", CatSeafood},
	{"bonito", CatSeafood}, {"katsuobushi", CatSeafood}, {"crab", CatSeafood},
	{"oyster", CatSeafood}, {"bacalhau", CatSeafood}, {"dashi", CatSeafood},

	{"lemon", CatFruit}, {"lime", CatFruit}, {"orange", CatFruit},
	{"apple", CatFruit}, {"cranberry", CatFruit}, {"raisin", CatFruit},
	{"date", CatFruit}, {"apricot", CatFruit}, {"passionfruit", CatFruit},
	{"berry", CatFruit}, {"cherry", CatFruit}, {"mango", CatFruit},
	{"papaya", CatFruit}, {"melon", CatFruit}, {"fig", CatFruit},
	{"pomegranate", CatFruit}, {"tamarind", CatFruit}, {"yuzu", CatFruit},
	{"currant", CatFruit}, {"plantain", CatFruit}, {"coconut", CatFruit},
	{"avocado", CatFruit}, {"olives", CatFruit}, {"preserved lemon", CatFruit},

	{"onion", CatVegetable}, {"garlic", CatVegetable}, {"tomato", CatVegetable},
	{"potato", CatVegetable}, {"carrot", CatVegetable}, {"celery", CatVegetable},
	{"cabbage", CatVegetable}, {"leek", CatVegetable}, {"shallot", CatVegetable},
	{"beet", CatVegetable}, {"cucumber", CatVegetable}, {"eggplant", CatVegetable},
	{"zucchini", CatVegetable}, {"okra", CatVegetable}, {"mushroom", CatVegetable},
	{"pea", CatVegetable}, {"bean", CatVegetable}, {"lentil", CatVegetable},
	{"chickpea", CatVegetable}, {"corn", CatVegetable}, {"pumpkin", CatVegetable},
	{"radish", CatVegetable}, {"turnip", CatVegetable}, {"parsnip", CatVegetable},
	{"spinach", CatVegetable}, {"artichoke", CatVegetable}, {"asparagus", CatVegetable},
	{"yam", CatVegetable}, {"cassava", CatVegetable}, {"yuca", CatVegetable},
	{"bamboo", CatVegetable}, {"daikon", CatVegetable}, {"sprout", CatVegetable},
	{"chestnut", CatVegetable}, {"tofu", CatVegetable}, {"seaweed", CatVegetable},
	{"kimchi", CatVegetable}, {"sauerkraut", CatVegetable}, {"pickle", CatVegetable},
	{"greens", CatVegetable}, {"chayote", CatVegetable}, {"tomatillo", CatVegetable},

	{"rice", CatGrain}, {"flour", CatGrain}, {"bread", CatGrain},
	{"pasta", CatGrain}, {"noodle", CatGrain}, {"oats", CatGrain},
	{"barley", CatGrain}, {"quinoa", CatGrain}, {"couscous", CatGrain},
	{"bulgur", CatGrain}, {"semolina", CatGrain}, {"masa", CatGrain},
	{"tortilla", CatGrain}, {"polenta", CatGrain}, {"millet", CatGrain},
	{"sorghum", CatGrain}, {"buckwheat", CatGrain}, {"panko", CatGrain},
	{"pastry", CatGrain}, {"scone", CatGrain}, {"pretzel", CatGrain},
	{"dumpling", CatGrain}, {"waffle", CatGrain}, {"cornbread", CatGrain},
	{"bun", CatGrain}, {"naan", CatGrain}, {"injera", CatGrain},
	{"crispbread", CatGrain}, {"spaetzle", CatGrain}, {"frites", CatGrain},

	{"sugar", CatSweet}, {"honey", CatSweet}, {"syrup", CatSweet},
	{"jam", CatSweet}, {"chocolate", CatSweet}, {"vanilla", CatSweet},
	{"caramel", CatSweet}, {"jaggery", CatSweet}, {"molasses", CatSweet},
	{"dulce de leche", CatSweet}, {"marzipan", CatSweet}, {"speculoos", CatSweet},
	{"matcha", CatSweet}, {"amaretti", CatSweet}, {"membrillo", CatSweet},

	{"oil", CatFat}, {"fat", CatFat}, {"mayonnaise", CatFat},

	{"soy sauce", CatSauce}, {"fish sauce", CatSauce}, {"oyster sauce", CatSauce},
	{"hoisin", CatSauce}, {"miso", CatSauce}, {"doenjang", CatSauce},
	{"gochujang", CatSauce}, {"harissa", CatSauce}, {"tahini", CatSauce},
	{"vinegar", CatSauce}, {"mustard", CatSauce}, {"ketchup", CatSauce},
	{"worcestershire", CatSauce}, {"sauce", CatSauce}, {"paste", CatSauce},
	{"mirin", CatSauce}, {"sake", CatSauce}, {"wine", CatSauce},
	{"beer", CatSauce}, {"stout", CatSauce}, {"ale", CatSauce},
	{"rum", CatSauce}, {"cognac", CatSauce}, {"brandy", CatSauce},
	{"ponzu", CatSauce}, {"mentsuyu", CatSauce}, {"chimichurri", CatSauce},
}

// CategoryOf classifies an ingredient name.
func CategoryOf(name string) Category {
	c := itemset.CanonicalName(name)
	for _, k := range categoryKeywords {
		if strings.Contains(c, k.kw) {
			return k.cat
		}
	}
	return CatOther
}

// category overlap parameters: pool size and the number of compounds an
// ingredient draws from its category pool. Small pools with large draws
// give high intra-category sharing (dairy, sweet, fat); large pools with
// small draws make ingredients chemically distinctive (spices, herbs).
var categoryProfile = map[Category]struct {
	poolSize int
	draw     int
	private  int
}{
	CatSpice:     {poolSize: 400, draw: 3, private: 18},
	CatHerb:      {poolSize: 300, draw: 4, private: 14},
	CatDairy:     {poolSize: 40, draw: 14, private: 6},
	CatMeat:      {poolSize: 60, draw: 10, private: 8},
	CatSeafood:   {poolSize: 60, draw: 10, private: 8},
	CatFruit:     {poolSize: 90, draw: 8, private: 10},
	CatVegetable: {poolSize: 120, draw: 7, private: 10},
	CatGrain:     {poolSize: 50, draw: 10, private: 6},
	CatSweet:     {poolSize: 35, draw: 12, private: 5},
	CatFat:       {poolSize: 30, draw: 10, private: 5},
	CatSauce:     {poolSize: 100, draw: 6, private: 12},
	CatOther:     {poolSize: 500, draw: 3, private: 15},
}

// westernAffinity lists the Western comfort pantry that Ahn et al. found
// to share a broad aroma base across categories; its members draw extra
// compounds from one common pool, making Western cuisines' co-occurring
// pairs compound-positive.
var westernAffinity = map[string]bool{
	"butter": true, "cream": true, "double cream": true, "clotted cream": true,
	"sour cream": true, "creme fraiche": true, "cream cheese": true,
	"buttermilk": true, "milk": true, "cheddar cheese": true,
	"vanilla extract": true, "chocolate chip": true, "golden syrup": true,
	"maple syrup": true, "brown sugar": true, "sugar": true, "honey": true,
	"strawberry jam": true, "scone": true, "shortcrust pastry": true,
	"brandy butter": true, "mincemeat": true, "pecan": true, "peanut butter": true,
	"oats": true, "apple": true, "cranberry": true, "pumpkin": true,
	"self-raising flour": true, "flour": true, "egg": true, "bacon": true,
	"waffle batter": true, "dark chocolate": true, "speculoos spice": true,
}

const (
	// Compound id blocks: category pools are laid out one after another,
	// the western affinity pool after them, private compounds last.
	westernPoolSize = 30
	westernDraw     = 10
)

// Table maps ingredient names to compound sets.
type Table struct {
	compounds map[string][]CompoundID
}

// NewTable synthesizes compound sets for a vocabulary. The synthesis is
// deterministic in the ingredient name alone, so tables built from
// different vocabularies agree on shared names.
func NewTable(vocab []string) *Table {
	t := &Table{compounds: make(map[string][]CompoundID, len(vocab))}
	for _, name := range vocab {
		t.add(name)
	}
	return t
}

func (t *Table) add(raw string) {
	name := itemset.CanonicalName(raw)
	if _, ok := t.compounds[name]; ok {
		return
	}
	cat := CategoryOf(name)
	prof := categoryProfile[cat]
	r := rng.New(0xf1a4c0de ^ hash(name))

	// Category pool block boundaries.
	base := CompoundID(0)
	for c := Category(0); c < cat; c++ {
		base += CompoundID(categoryProfile[c].poolSize)
	}
	var totalPools CompoundID
	for c := Category(0); c < numCategories; c++ {
		totalPools += CompoundID(categoryProfile[c].poolSize)
	}

	seen := make(map[CompoundID]bool, prof.draw+prof.private+westernDraw)
	var out []CompoundID
	put := func(id CompoundID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, idx := range r.SampleDistinct(prof.poolSize, prof.draw) {
		put(base + CompoundID(idx))
	}
	if westernAffinity[name] {
		for _, idx := range r.SampleDistinct(westernPoolSize, westernDraw) {
			put(totalPools + CompoundID(idx))
		}
	}
	// Private compounds: a block unique to this ingredient, derived from
	// its hash.
	privBase := totalPools + westernPoolSize + CompoundID(hash(name)%1_000_000)*64
	for i := 0; i < prof.private; i++ {
		put(privBase + CompoundID(i))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	t.compounds[name] = out
}

// Compounds returns the compound set of an ingredient, synthesizing it on
// first use for names outside the constructed vocabulary.
func (t *Table) Compounds(name string) []CompoundID {
	c := itemset.CanonicalName(name)
	if ids, ok := t.compounds[c]; ok {
		return ids
	}
	t.add(c)
	return t.compounds[c]
}

// Shared returns the number of compounds two ingredients share.
func (t *Table) Shared(a, b string) int {
	return shared(t.Compounds(a), t.Compounds(b))
}

// shared counts the common members of two ascending compound sets.
func shared(x, y []CompoundID) int {
	i, j, n := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			n++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return n
}

func hash(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
