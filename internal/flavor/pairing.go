package flavor

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cuisines/internal/itemset"
	"cuisines/internal/recipedb"
	"cuisines/internal/rng"
)

// PairingResult is one cuisine's food-pairing statistic.
type PairingResult struct {
	Region string
	// CoOccurring is the mean shared-compound count over ingredient pairs
	// that appear together in recipes.
	CoOccurring float64
	// Random is the same mean over frequency-matched random pairs — the
	// null expectation.
	Random float64
	// DeltaNs = CoOccurring - Random (Ahn et al.'s ΔN_s). Positive:
	// the cuisine pairs compound-sharing ingredients; negative: it pairs
	// chemically contrasting ones.
	DeltaNs float64
	// Pairs is the number of co-occurring pairs measured.
	Pairs int
}

// AnalyzeCuisine computes ΔN_s for one cuisine. recipes are its
// recipes' item id lists (recipedb.Vocab.Region), ascending, and
// comps[id] is the compound set of the ingredient with that id, nil for
// processes and utensils, which the statistic ignores.
func AnalyzeCuisine(region string, recipes [][]int32, comps [][]CompoundID, seed uint64) PairingResult {
	res := PairingResult{Region: region}
	if len(recipes) == 0 {
		return res
	}

	// Co-occurring pairs: all ingredient pairs within each recipe,
	// capped per recipe to bound the quadratic term on rich recipes.
	const maxPairsPerRecipe = 60
	var sumCo float64
	var nCo int
	var occurrences []int32 // frequency-weighted pool for the null
	r := rng.New(seed ^ hash(region))
	for _, rec := range recipes {
		start := len(occurrences)
		for _, id := range rec {
			if comps[id] != nil {
				occurrences = append(occurrences, id)
			}
		}
		ings := occurrences[start:]
		pairs := 0
		for i := 0; i < len(ings) && pairs < maxPairsPerRecipe; i++ {
			for j := i + 1; j < len(ings) && pairs < maxPairsPerRecipe; j++ {
				sumCo += float64(shared(comps[ings[i]], comps[ings[j]]))
				nCo++
				pairs++
			}
		}
	}
	if nCo == 0 || len(occurrences) < 2 {
		return res
	}
	res.CoOccurring = sumCo / float64(nCo)
	res.Pairs = nCo

	// Null: random ingredient pairs drawn from the occurrence pool
	// (frequency-matched, as in Ahn et al.), same sample size.
	var sumRand float64
	nRand := nCo
	if nRand > 200_000 {
		nRand = 200_000
	}
	for k := 0; k < nRand; k++ {
		a := occurrences[r.Intn(len(occurrences))]
		b := occurrences[r.Intn(len(occurrences))]
		for b == a {
			b = occurrences[r.Intn(len(occurrences))]
		}
		sumRand += float64(shared(comps[a], comps[b]))
	}
	res.Random = sumRand / float64(nRand)
	res.DeltaNs = res.CoOccurring - res.Random
	return res
}

// AnalyzeDB computes ΔN_s for every cuisine in the database, using a
// table synthesized over the ingredients of the database's vocabulary.
func AnalyzeDB(db *recipedb.DB, seed uint64) []PairingResult {
	v := db.Vocab()
	t := NewTable(nil)
	comps := make([][]CompoundID, len(v.Items()))
	for id, it := range v.Items() {
		if it.Kind == itemset.Ingredient {
			comps[id] = t.Compounds(it.Name)
		}
	}
	out := make([]PairingResult, 0, db.NumRegions())
	for row, region := range db.Regions() {
		out = append(out, AnalyzeCuisine(region, v.Region(row), comps, seed))
	}
	return out
}

// RenderPairing writes the per-cuisine pairing table.
func RenderPairing(w io.Writer, rows []PairingResult) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Region\tco-occurring\trandom\tdelta N_s")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.3f\n", r.Region, r.CoOccurring, r.Random, r.DeltaNs)
	}
	return tw.Flush()
}
