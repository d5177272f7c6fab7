package corpus

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cuisines/internal/itemset"
	"cuisines/internal/parallel"
	"cuisines/internal/recipedb"
	"cuisines/internal/rng"
)

// Config controls corpus generation.
type Config struct {
	// Seed drives every random choice; the same seed yields the same
	// corpus on every platform.
	Seed uint64
	// Scale multiplies the per-region Table I recipe counts. 0 (or 1)
	// means full scale (118,171 recipes); tests typically use 0.05-0.2.
	Scale float64
	// Regions optionally restricts generation to a subset of region
	// names. Empty means all 26.
	Regions []string
	// Workers caps the number of regions generated concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 forces the sequential path. The corpus is
	// byte-identical for any value: each region draws from its own RNG
	// stream (seeded from Seed and the region name only) and the
	// per-region batches are concatenated in canonical profile order.
	Workers int
}

// DefaultSeed is the corpus seed used by every experiment in this
// repository (the paper's arXiv submission date).
const DefaultSeed = 20200426

// Default is the full-scale configuration used by the benchmark harness
// and the cmd tools.
func Default() Config { return Config{Seed: DefaultSeed, Scale: 1} }

// Corpus-wide targets from Sec. III of the paper.
const (
	defaultMeanIngredients = 10.0
	defaultMeanProcesses   = 12.0
	targetMeanUtensils     = 3.3
	// missingUtensilRate is the *forced* utensil-clearing rate. Together
	// with the ~3% of recipes that naturally draw no utensil, it
	// reproduces the paper's 14,601 utensil-less recipes out of 118,171
	// (12.4%).
	missingUtensilRate = 0.093

	// subThresholdCap keeps pool and background items strictly below the
	// paper's 0.2 mining support so they shape the authenticity matrix
	// without perturbing Table I pattern counts.
	subThresholdCap = 0.18

	// Long-tail sizing (see vocab.go): each region owns a block of rare
	// ingredient names; one shared block is drawn globally.
	rareIngredientsPerRegion = 700
	sharedRareIngredients    = 1200
	backgroundProcessCount   = 60
	rareProcessCount         = 240
	backgroundUtensilCount   = 20
	rareUtensilCount         = 44
)

// Generate builds the synthetic RecipeDB.
func Generate(cfg Config) (*recipedb.DB, error) {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	selected, err := selectProfiles(cfg.Regions)
	if err != nil {
		return nil, err
	}

	for i := range selected {
		if err := selected[i].Validate(); err != nil {
			return nil, err
		}
	}
	// Fan out one job per region. Each region's recipes depend only on the
	// seed and the region itself — the per-region generator is seeded
	// independently of region subset, order, or worker count — so a
	// region's batch is identical whether generated alone, sequentially,
	// or concurrently, and each region writes its own span of the corpus,
	// laid out in profile order, which reproduces the sequential corpus
	// byte for byte.
	start := make([]int, len(selected)+1)
	for i, p := range selected {
		n := int(math.Round(float64(p.Recipes) * scale))
		if n < 30 {
			n = 30
		}
		start[i+1] = start[i] + n
	}
	recipes := make([]recipedb.Recipe, start[len(selected)])
	batches := parallel.Map(len(selected), cfg.Workers, func(idx int) batch {
		p := selected[idx]
		r := rng.New(cfg.Seed ^ hashString(p.Region))
		return newRegionGen(&p, regionIndexOf(p.Region)).batch(r, recipes[start[idx]:start[idx+1]])
	})
	return assemble(recipes, batches)
}

// assemble hands recipedb the recipes and their vocabulary: the item
// space cut down to the items drawn, which keeps Item.Less order, with
// the batches' id lists renumbered to match and concatenated in order.
func assemble(recipes []recipedb.Recipe, batches []batch) (*recipedb.DB, error) {
	items := space().items
	newID := make([]int32, len(items)) // space id -> vocabulary id + 1, 0 if undrawn
	entries := 0
	for _, b := range batches {
		entries += len(b.ids)
		for _, id := range b.ids {
			newID[id] = 1
		}
	}
	var drawn []itemset.Item
	for id, used := range newID {
		if used != 0 {
			drawn = append(drawn, items[id])
			newID[id] = int32(len(drawn))
		}
	}
	ids := make([]int32, 0, entries)
	off := make([]int32, 1, len(recipes)+1)
	for _, b := range batches {
		for _, id := range b.ids {
			ids = append(ids, newID[id]-1)
		}
		base := off[len(off)-1]
		for _, o := range b.off[1:] {
			off = append(off, base+o)
		}
	}
	return recipedb.NewChecked(recipes, recipedb.NewVocab(drawn, ids, off))
}

func selectProfiles(regions []string) ([]Profile, error) {
	all := Profiles()
	if len(regions) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(regions))
	for _, r := range regions {
		want[r] = true
	}
	var out []Profile
	for _, p := range all {
		if want[p.Region] {
			out = append(out, p)
			delete(want, p.Region)
		}
	}
	if len(want) > 0 {
		// Name every unknown region, sorted: picking one via map
		// iteration made the error message differ run to run.
		missing := make([]string, 0, len(want))
		for r := range want {
			missing = append(missing, r)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("corpus: unknown region %q", strings.Join(missing, ", "))
	}
	return out, nil
}

// regionIndexOf returns the region's position in the canonical sorted
// order; it selects the region's private rare-name block.
func regionIndexOf(region string) int {
	all := Profiles()
	for i, p := range all {
		if p.Region == region {
			return i
		}
	}
	return 0
}

// hashString is FNV-1a, used only for seed derivation.
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// regionGen holds a region's fully resolved generation tables, as ids
// of the item space.
type regionGen struct {
	profile *Profile
	slug    string

	bundles []idBundle // profile bundles plus region-specific boosters
	// singles are drawn item by item after the bundles: the band, the
	// universal tables minus items the band overrides, the
	// sub-threshold pantry items, background processes and background
	// utensils, in that order.
	singles []idProb

	rareBase   int // first rare-ingredient index for this region
	sharedBase int // first shared rare-ingredient index

	// stamp[id] is one more than the index of the last recipe that drew
	// id, so a draw is deduplicated without a per-recipe set.
	stamp []int32
}

// idProb and idBundle are ItemProb and Bundle over item-space ids.
type idProb struct {
	id   int32
	prob float64
}

type idBundle struct {
	ids  []int32
	prob float64
}

func newRegionGen(p *Profile, regionIdx int) *regionGen {
	sp := space()
	g := &regionGen{
		profile:    p,
		slug:       slugify(p.Region),
		rareBase:   regionIdx * rareIngredientsPerRegion,
		sharedBase: len(profiles) * rareIngredientsPerRegion,
		stamp:      make([]int32, len(sp.items)),
	}
	for _, b := range append(append([]Bundle(nil), p.Bundles...), regionBoost(regionIdx, p.Boost)...) {
		ids := make([]int32, len(b.Items))
		for i, it := range b.Items {
			ids[i] = sp.id(it)
		}
		g.bundles = append(g.bundles, idBundle{ids, b.Prob})
	}
	for _, table := range [...][]ItemProb{p.Band, universals(p), poolItems(p), backgroundProcesses(p), backgroundUtensils(p)} {
		for _, ip := range table {
			g.singles = append(g.singles, idProb{sp.id(ip.Item), ip.Prob})
		}
	}
	return g
}

// regionBoost derives `level` (max 3) booster bundles for the region:
// triples of *regional technique* processes drawn from the region's
// private block of the rare-process name space. The processes are
// region-unique (26 regions x 9 processes fit the 240-name rare pool
// disjointly), so booster patterns raise the region's Table I pattern
// count without creating cross-region pattern overlap; being pure process
// patterns they are also excluded from the headline significance ranking
// (see internal/core).
func regionBoost(regionIdx, level int) []Bundle {
	if level <= 0 {
		return nil
	}
	if level > 3 {
		level = 3
	}
	base := backgroundProcessCount + (regionIdx*9)%rareProcessCount
	out := make([]Bundle, 0, level)
	for b := 0; b < level; b++ {
		out = append(out, Bundle{
			Items: []ItemRef{
				proc(TailProcessName(base + 3*b)),
				proc(TailProcessName(base + 3*b + 1)),
				proc(TailProcessName(base + 3*b + 2)),
			},
			Prob: boostProb,
		})
	}
	return out
}

// universals filters the universal tables against the region's band:
// when a profile bands an item that is also universal (e.g. a cuisine with
// its own calibrated garlic rate), the band probability is the item's
// total rate and the universal entry is dropped. Bundles, by contrast,
// model correlation on top of the universal base and do not suppress it.
func universals(p *Profile) []ItemProb {
	banded := make(map[ItemRef]bool, len(p.Band))
	for _, ip := range p.Band {
		banded[ip.Item] = true
	}
	var out []ItemProb
	for _, table := range [][]ItemProb{universalIngredients, universalProcesses, universalUtensils} {
		for _, ip := range table {
			if !banded[ip.Item] {
				out = append(out, ip)
			}
		}
	}
	return out
}

// poolItems resolves the macro-region pantry pools into capped,
// sub-threshold inclusion probabilities that top the recipe up to the
// region's mean-ingredient target.
func poolItems(p *Profile) []ItemProb {
	target := p.MeanIngredients
	if target == 0 {
		target = defaultMeanIngredients
	}
	expected := universalSum(universalIngredients) + p.expectedBandIngredients() + 1.5 // rare mean
	lambda := target - expected
	if lambda <= 0 {
		return nil
	}

	// Items already planted by band/bundles must not be double-included.
	taken := make(map[string]bool)
	for _, ip := range p.Band {
		taken[ip.Item.Name] = true
	}
	for _, b := range p.Bundles {
		for _, it := range b.Items {
			taken[it.Name] = true
		}
	}
	for _, up := range universalIngredients {
		taken[up.Item.Name] = true
	}

	var names []string
	seen := make(map[string]bool)
	poolNames := append([]string(nil), p.Pools...)
	sort.Strings(poolNames)
	for _, pool := range poolNames {
		for _, n := range pantryPools[pool] {
			if !taken[n] && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		return nil
	}
	// Zipf-shaped weights, normalized to lambda, capped sub-threshold.
	weights := make([]float64, len(names))
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+3), -0.7)
		total += weights[i]
	}
	out := make([]ItemProb, len(names))
	for i, n := range names {
		prob := lambda * weights[i] / total
		if prob > subThresholdCap {
			prob = subThresholdCap
		}
		out[i] = ItemProb{ing(n), prob}
	}
	return out
}

func backgroundProcesses(p *Profile) []ItemProb {
	target := p.MeanProcesses
	if target == 0 {
		target = defaultMeanProcesses
	}
	expected := p.expectedBandProcesses() + 0.8 // rare mean
	lambda := target - expected
	if lambda <= 0 {
		return nil
	}
	weights := make([]float64, backgroundProcessCount)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+4), -0.5)
		total += weights[i]
	}
	out := make([]ItemProb, backgroundProcessCount)
	for i := range out {
		prob := lambda * weights[i] / total
		if prob > subThresholdCap {
			prob = subThresholdCap
		}
		out[i] = ItemProb{proc(TailProcessName(i)), prob}
	}
	return out
}

func backgroundUtensils(p *Profile) []ItemProb {
	expected := universalSum(universalUtensils) + 0.3 // rare mean
	for _, ip := range p.Band {
		if ip.Item.Kind == itemset.Utensil {
			expected += ip.Prob
		}
	}
	for _, b := range p.Bundles {
		for _, it := range b.Items {
			if it.Kind == itemset.Utensil {
				expected += b.Prob
			}
		}
	}
	lambda := targetMeanUtensils - expected
	if lambda <= 0 {
		return nil
	}
	weights := make([]float64, backgroundUtensilCount)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+3), -0.6)
		total += weights[i]
	}
	out := make([]ItemProb, backgroundUtensilCount)
	for i := range out {
		prob := lambda * weights[i] / total
		if prob > subThresholdCap {
			prob = subThresholdCap
		}
		out[i] = ItemProb{ute(TailUtensilName(i)), prob}
	}
	return out
}

func universalSum(items []ItemProb) float64 {
	s := 0.0
	for _, ip := range items {
		s += ip.Prob
	}
	return s
}

// batch is the item-space ids of one region's recipes.
type batch struct {
	ids []int32 // each recipe's distinct ids, ascending, back to back
	off []int32 // recipe k holds ids[off[k]:off[k+1]]
}

// batch fills recipes with the region's first len(recipes) recipes. It
// draws every recipe's ids first, then cuts all the item-name lists
// from one arena.
func (g *regionGen) batch(r *rng.RNG, recipes []recipedb.Recipe) batch {
	// Size the id arena by the expected draws per recipe; duplicates
	// and cleared utensils only lower the count kept.
	perRecipe := 1 + 0.5 + 0.8 + 0.3 // the long tails
	for _, bu := range g.bundles {
		perRecipe += bu.prob * float64(len(bu.ids))
	}
	for _, ip := range g.singles {
		perRecipe += ip.prob
	}
	n := len(recipes)
	b := batch{
		ids: make([]int32, 0, int(perRecipe*float64(n))),
		off: make([]int32, 1, n+1),
	}
	for i := 0; i < n; i++ {
		b.ids = g.draw(r, i, b.ids)
		b.off = append(b.off, int32(len(b.ids)))
	}
	items := space().items
	arena := make([]string, len(b.ids))
	for i := range recipes {
		drawn := b.ids[b.off[i]:b.off[i+1]]
		list := arena[b.off[i]:b.off[i+1]]
		// Each kind's names in draw order, which the corpus frame
		// goldens pin.
		var end [3]int
		k := 0
		for kind := range end {
			for _, id := range drawn {
				if items[id].Kind == itemset.Kind(kind) {
					list[k] = items[id].Name
					k++
				}
			}
			end[kind] = k
		}
		ings := cutList(list, 0, end[itemset.Ingredient])
		recipes[i] = recipedb.Recipe{
			ID:          recipeID(g.slug, i),
			Name:        recipeName(g.profile.Region, ings, i),
			Region:      g.profile.Region,
			Ingredients: ings,
			Processes:   cutList(list, end[itemset.Ingredient], end[itemset.Process]),
			Utensils:    cutList(list, end[itemset.Process], end[itemset.Utensil]),
		}
		sortIDs(drawn)
	}
	return b
}

// sortIDs sorts one recipe's ids, a few dozen at most, by insertion,
// which at that length beats slices.Sort.
func sortIDs(ids []int32) {
	for i := 1; i < len(ids); i++ {
		v, j := ids[i], i
		for ; j > 0 && ids[j-1] > v; j-- {
			ids[j] = ids[j-1]
		}
		ids[j] = v
	}
}

// cutList returns list[lo:hi] capped at hi, so an append to one list
// cannot overwrite the next, or nil when empty.
func cutList(list []string, lo, hi int) []string {
	if lo == hi {
		return nil
	}
	return list[lo:hi:hi]
}

// draw appends the distinct ids of the region's i-th recipe to ids, in
// draw order.
func (g *regionGen) draw(r *rng.RNG, i int, ids []int32) []int32 {
	sp := space()
	start, stamp := len(ids), int32(i+1)
	include := func(id int32) {
		if g.stamp[id] != stamp {
			g.stamp[id] = stamp
			ids = append(ids, id)
		}
	}

	// Signature bundles first (they define the Table I patterns).
	for _, b := range g.bundles {
		if r.Bool(b.prob) {
			for _, id := range b.ids {
				include(id)
			}
		}
	}
	for _, ip := range g.singles {
		if r.Bool(ip.prob) {
			include(ip.id)
		}
	}

	// Long tails: every recipe carries one region-private rare ingredient
	// (cycled for full vocabulary coverage) and, half the time, one shared
	// rare ingredient.
	include(sp.tailIngredients[g.rareBase+i%rareIngredientsPerRegion])
	if r.Bool(0.5) {
		include(sp.tailIngredients[g.sharedBase+zipfIndex(r, sharedRareIngredients)])
	}
	if r.Bool(0.8) {
		include(sp.tailProcesses[backgroundProcessCount+zipfIndex(r, rareProcessCount)])
	}
	if r.Bool(0.3) {
		include(sp.tailUtensils[backgroundUtensilCount+zipfIndex(r, rareUtensilCount)])
	}

	// Utensil sparsity: a fixed fraction of recipes lack utensil data
	// entirely (Sec. III: 14,601 of 118k).
	if r.Bool(missingUtensilRate) {
		kept := ids[:start]
		for _, id := range ids[start:] {
			if sp.items[id].Kind != itemset.Utensil {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	return ids
}

// zipfIndex draws a Zipf(0.8)-ish index in [0, n) without precomputing a
// table: inverse-transform on the approximate continuous CDF.
func zipfIndex(r *rng.RNG, n int) int {
	// For s < 1 the CDF of the continuous analogue x^-s on [1, n+1] is
	// (x^(1-s)-1)/((n+1)^(1-s)-1).
	const s = 0.8
	u := r.Float64()
	top := math.Pow(float64(n+1), 1-s) - 1
	x := math.Pow(u*top+1, 1/(1-s))
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// recipeID formats the region's i-th recipe ID as slug-%06d.
func recipeID(slug string, i int) string {
	b := make([]byte, 0, len(slug)+8)
	b = append(append(b, slug...), '-')
	for w := 100000; w > 1 && i < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// recipeName titles the region's i-th recipe after one of its
// ingredients: "<Lead> <style> (<region> #<i>)".
func recipeName(region string, ings []string, i int) string {
	lead := "house"
	if len(ings) > 0 {
		lead = ings[i%len(ings)]
	}
	style := recipeStyles[i%len(recipeStyles)]
	b := make([]byte, 0, len(lead)+len(style)+len(region)+12)
	if c := lead[0]; 'a' <= c && c <= 'z' {
		b = append(b, c-'a'+'A')
	} else {
		b = append(b, strings.ToUpper(lead[:1])...)
	}
	b = append(append(append(b, lead[1:]...), ' '), style...)
	b = append(append(append(b, " ("...), region...), " #"...)
	return string(append(strconv.AppendInt(b, int64(i), 10), ')'))
}

var recipeStyles = []string{"stew", "roast", "salad", "bake", "bowl", "plate", "pie", "soup", "grill", "braise"}

func slugify(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
