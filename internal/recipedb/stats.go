package recipedb

import (
	"fmt"
	"strings"
)

// Stats summarizes a DB in the terms of Sec. III of the paper.
type Stats struct {
	Recipes           int `json:"recipes"`
	Regions           int `json:"regions"`
	UniqueIngredients int `json:"unique_ingredients"`
	UniqueProcesses   int `json:"unique_processes"`
	UniqueUtensils    int `json:"unique_utensils"`
	// Mean items per recipe, by kind (paper: ~10 ingredients, ~12
	// processes, ~3 utensils).
	MeanIngredients float64 `json:"mean_ingredients"`
	MeanProcesses   float64 `json:"mean_processes"`
	MeanUtensils    float64 `json:"mean_utensils"`
	// RecipesWithoutUtensils counts the utensil-sparse recipes (paper:
	// 14,601).
	RecipesWithoutUtensils int `json:"recipes_without_utensils"`
	// PerRegion holds recipe counts by region, in the DB's sorted
	// region order.
	PerRegion []RegionCount `json:"per_region"`
}

// RegionCount pairs a region with its recipe count.
type RegionCount struct {
	Region  string `json:"region"`
	Recipes int    `json:"recipes"`
}

// ComputeStats returns the DB's Sec. III summary. Unique items are
// counted canonically, off the vocabulary mining reads; the means count
// raw list entries.
func ComputeStats(db *DB) Stats {
	st := Stats{Recipes: db.Len(), Regions: db.NumRegions()}
	var unique [3]int // by Kind: Ingredient, Process, Utensil
	for _, it := range db.Vocab().Items() {
		unique[it.Kind]++
	}
	st.UniqueIngredients, st.UniqueProcesses, st.UniqueUtensils = unique[0], unique[1], unique[2]
	var sumI, sumP, sumU int
	for i := 0; i < db.Len(); i++ {
		r := db.Recipe(i)
		sumI += len(r.Ingredients)
		sumP += len(r.Processes)
		sumU += len(r.Utensils)
		if len(r.Utensils) == 0 {
			st.RecipesWithoutUtensils++
		}
	}
	if db.Len() > 0 {
		n := float64(db.Len())
		st.MeanIngredients = float64(sumI) / n
		st.MeanProcesses = float64(sumP) / n
		st.MeanUtensils = float64(sumU) / n
	}
	for _, region := range db.Regions() {
		st.PerRegion = append(st.PerRegion, RegionCount{region, db.RegionSize(region)})
	}
	return st
}

// String renders a human-readable report in the shape of Sec. III.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recipes: %d across %d regions\n", st.Recipes, st.Regions)
	fmt.Fprintf(&b, "unique items: %d ingredients, %d processes, %d utensils\n",
		st.UniqueIngredients, st.UniqueProcesses, st.UniqueUtensils)
	fmt.Fprintf(&b, "mean per recipe: %.1f ingredients, %.1f processes, %.1f utensils\n",
		st.MeanIngredients, st.MeanProcesses, st.MeanUtensils)
	fmt.Fprintf(&b, "recipes without utensil data: %d\n", st.RecipesWithoutUtensils)
	for _, rc := range st.PerRegion {
		fmt.Fprintf(&b, "  %-24s %6d\n", rc.Region, rc.Recipes)
	}
	return b.String()
}
