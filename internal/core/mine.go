// Package core wires the substrates into the paper's experiments: the
// per-cuisine pattern miner and significance ranking behind Table I, the
// pattern / authenticity / geographic feature pipelines behind Figs. 1-6,
// and the quantified Sec. VII validation. The root cuisines package is a
// thin facade over this one.
package core

import (
	"fmt"

	"cuisines/internal/eclat"
	"cuisines/internal/itemset"
	"cuisines/internal/miner"
	"cuisines/internal/parallel"
	"cuisines/internal/recipedb"
)

// DefaultMinSupport is the paper's mining threshold (Sec. IV: "a trade
// off support of 20% was chosen").
const DefaultMinSupport = 0.2

// RegionPatterns holds one cuisine's mining result.
type RegionPatterns struct {
	Region  string
	Recipes int
	// Patterns is every frequent itemset at the mining threshold, in
	// canonical report order.
	Patterns []itemset.Pattern
}

// MineRegionsWorkers mines frequent itemsets per cuisine at the given
// support threshold, exactly as Sec. V.A prescribes (ingredients,
// processes and utensils concatenated; one Eclat run per region).
// Regions are returned in the DB's sorted region order. workers <= 0
// means GOMAXPROCS and 1 forces the sequential path. The per-cuisine
// runs are independent — each indexes its region once from the DB's
// shared vocabulary and returns its own result slot in canonical report
// order — so the output is identical to the sequential path for any
// worker count.
func MineRegionsWorkers(db *recipedb.DB, minSupport float64, workers int) ([]RegionPatterns, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if !(minSupport > 0 && minSupport <= 1) {
		return nil, fmt.Errorf("core: min support %v out of (0, 1]", minSupport)
	}
	regions := db.Regions()
	v := db.Vocab()
	out := parallel.Map(len(regions), workers, func(i int) RegionPatterns {
		txns := v.Region(i)
		return RegionPatterns{
			Region:   regions[i],
			Recipes:  len(txns),
			Patterns: eclat.MineIndex(itemset.NewIndex(v.Items(), txns), minSupport),
		}
	})
	return out, nil
}

// MineRegionsWith is MineRegionsWorkers. Eclat is the only miner, so m
// is ignored; the function remains only because the benchmark module's
// replay calls it.
func MineRegionsWith(db *recipedb.DB, minSupport float64, workers int, m miner.Miner) ([]RegionPatterns, error) {
	return MineRegionsWorkers(db, minSupport, workers)
}

// PatternSets flattens mining results into parallel slices for the
// encoder.
func PatternSets(rps []RegionPatterns) (regions []string, patterns [][]itemset.Pattern) {
	for _, rp := range rps {
		regions = append(regions, rp.Region)
		patterns = append(patterns, rp.Patterns)
	}
	return regions, patterns
}
