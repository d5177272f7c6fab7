package core

import (
	"sort"

	"cuisines/internal/itemset"
)

// The paper's Table I reports the "topmost significant patterns" per
// cuisine without defining significance formally (ranking by raw support
// would always return generic singletons such as "add"). This file
// implements the documented interestingness ranking the repository uses:
//
//  1. An item is *universal* if it is frequent, as a singleton, in at
//     least UniversalFraction of all cuisines (salt, add, heat, ...).
//  2. Patterns consisting solely of universal items, and patterns
//     containing no ingredient or utensil at all (pure cooking-process
//     grammar such as "add + heat"), are excluded from the headline
//     ranking. They still count toward the Table I pattern totals,
//     matching the paper's counts; every headline the paper prints
//     anchors on at least one ingredient or utensil.
//  3. Remaining patterns are scored support * (1 + 0.25*(|P|-1)): larger
//     co-occurrence patterns win over their own singletons, which is how
//     Table I reports "soy sauce + add + heat" rather than "soy sauce"
//     for the Chinese cuisine but the bare "soy sauce" for the Japanese.
//
// EXPERIMENTS.md (cmd/report's output) records the measured headline
// next to the paper's for every cuisine.

// DefaultUniversalFraction classifies an item as universal when it is
// frequent in at least this fraction of cuisines.
const DefaultUniversalFraction = 0.6

// ScoredPattern is a pattern with its significance score.
type ScoredPattern struct {
	Pattern itemset.Pattern
	Score   float64
}

// Ranker ranks patterns by significance given the corpus-wide universal
// item set.
type Ranker struct {
	universal map[itemset.Item]bool
}

// NewRanker derives the universal item set from per-region mining
// results. fraction <= 0 uses DefaultUniversalFraction.
func NewRanker(rps []RegionPatterns, fraction float64) *Ranker {
	if fraction <= 0 {
		fraction = DefaultUniversalFraction
	}
	regionsWithItem := make(map[itemset.Item]int)
	for _, rp := range rps {
		seen := make(map[itemset.Item]bool)
		for _, p := range rp.Patterns {
			if p.Items.Len() != 1 {
				continue
			}
			it := p.Items.At(0)
			if !seen[it] {
				seen[it] = true
				regionsWithItem[it]++
			}
		}
	}
	// Ceiling: an item frequent in strictly fewer than fraction*regions
	// stays regional.
	need := int(float64(len(rps)) * fraction)
	if float64(need) < float64(len(rps))*fraction {
		need++
	}
	if need < 1 {
		need = 1
	}
	universal := make(map[itemset.Item]bool)
	for it, n := range regionsWithItem {
		if n >= need {
			universal[it] = true
		}
	}
	return &Ranker{universal: universal}
}

// IsUniversal reports whether the item was classified universal.
func (r *Ranker) IsUniversal(it itemset.Item) bool { return r.universal[it] }

// UniversalItems returns the universal items in canonical order.
func (r *Ranker) UniversalItems() []itemset.Item {
	out := make([]itemset.Item, 0, len(r.universal))
	for it := range r.universal {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Score returns the significance score of a pattern, or -1 if the pattern
// is excluded (all items universal, or no ingredient/utensil present).
func (r *Ranker) Score(p itemset.Pattern) float64 {
	allUniversal := true
	processOnly := true
	for _, it := range p.Items.Items() {
		if !r.universal[it] {
			allUniversal = false
		}
		if it.Kind != itemset.Process {
			processOnly = false
		}
	}
	if allUniversal || processOnly {
		return -1
	}
	return p.Support * (1 + 0.25*float64(p.Items.Len()-1))
}

// Rank returns the patterns ordered by descending significance,
// excluding all-universal patterns. Ties break toward larger patterns,
// then lexicographically, so the ranking is total and deterministic.
func (r *Ranker) Rank(patterns []itemset.Pattern) []ScoredPattern {
	var out []ScoredPattern
	for _, p := range patterns {
		if s := r.Score(p); s >= 0 {
			out = append(out, ScoredPattern{Pattern: p, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		li, lj := out[i].Pattern.Items.Len(), out[j].Pattern.Items.Len()
		if li != lj {
			return li > lj
		}
		return out[i].Pattern.StringPattern() < out[j].Pattern.StringPattern()
	})
	return out
}

// Top returns the k most significant patterns.
func (r *Ranker) Top(patterns []itemset.Pattern, k int) []ScoredPattern {
	ranked := r.Rank(patterns)
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}
