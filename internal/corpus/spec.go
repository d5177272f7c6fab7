// Package corpus generates the synthetic RecipeDB that substitutes for the
// paper's non-redistributable 118k-recipe scrape (see DESIGN.md, Sec. 2).
//
// The generator is calibrated to Table I of the paper: every region
// reproduces its recipe count, its headline pattern(s) at the published
// support, and a frequent-pattern count in the published ballpark. Regions
// share signature items along the geographic and historical lines the
// paper's results depend on (soy across East Asia, olive oil around the
// Mediterranean, butter across the Anglosphere, the cumin spice belt
// linking the Indian Subcontinent with Northern Africa, and a deliberate
// French affinity in the Canadian pantry), so the downstream clustering
// experiments (Figs. 1-6) reproduce the paper's qualitative structure.
package corpus

import (
	"fmt"

	"cuisines/internal/itemset"
)

// ItemRef names an item with its kind.
type ItemRef struct {
	Name string
	Kind itemset.Kind
}

// ing, proc and ute are shorthand constructors used by the profile tables.
func ing(name string) ItemRef  { return ItemRef{name, itemset.Ingredient} }
func proc(name string) ItemRef { return ItemRef{name, itemset.Process} }
func ute(name string) ItemRef  { return ItemRef{name, itemset.Utensil} }

// ItemProb is an independently included item.
type ItemProb struct {
	Item ItemRef
	// Prob is the per-recipe inclusion probability.
	Prob float64
}

// Bundle is a set of items included together with probability Prob; it is
// the mechanism that plants multi-item Table I patterns (e.g. Chinese
// "soy sauce + add + heat" at 0.27) with controlled support.
type Bundle struct {
	Items []ItemRef
	Prob  float64
}

// Profile calibrates one region.
type Profile struct {
	// Region is the Table I region name (must match internal/geo).
	Region string
	// Recipes is the full-scale recipe count from Table I.
	Recipes int
	// Bundles are the signature co-occurrence groups.
	Bundles []Bundle
	// Boost adds this many region-specific universal-process bundles
	// (0-3). Their items are universal in every cuisine, so the patterns
	// they mint raise the region's Table I pattern count without entering
	// the headline ranking; the triples are derived from the region name
	// so that no two regions share them (shared boosters would fake
	// cross-region similarity in the clustering experiments).
	Boost int
	// Band holds region-specific items with supports in or near the
	// mining band (>= 0.2): each contributes one singleton pattern.
	Band []ItemProb
	// Pools names the macro-region pantry pools whose sub-threshold items
	// this region draws from (drives the authenticity clustering).
	Pools []string
	// MeanIngredients / MeanProcesses are per-recipe targets; the
	// generator tops up with sub-threshold pool items to reach them.
	// Zero means the corpus defaults (10 and 12).
	MeanIngredients float64
	MeanProcesses   float64
	// IntendedTop records the Table I headline pattern(s) this profile is
	// calibrated to produce, as sorted string patterns — used by the
	// calibration tests and cmd/report's measured-vs-published table.
	IntendedTop []string
	// PaperSupport is the Table I support of the first intended pattern.
	PaperSupport float64
	// PaperPatternCount is the Table I "number of patterns" column.
	PaperPatternCount int
}

// Validate checks profile consistency.
func (p *Profile) Validate() error {
	if p.Region == "" {
		return fmt.Errorf("corpus: profile with empty region")
	}
	if p.Recipes <= 0 {
		return fmt.Errorf("corpus: profile %s has %d recipes", p.Region, p.Recipes)
	}
	for _, b := range p.Bundles {
		if b.Prob <= 0 || b.Prob > 1 {
			return fmt.Errorf("corpus: profile %s bundle prob %v out of range", p.Region, b.Prob)
		}
		if len(b.Items) == 0 {
			return fmt.Errorf("corpus: profile %s has empty bundle", p.Region)
		}
	}
	for _, ip := range p.Band {
		if ip.Prob <= 0 || ip.Prob > 1 {
			return fmt.Errorf("corpus: profile %s item %s prob %v out of range", p.Region, ip.Item.Name, ip.Prob)
		}
	}
	for _, pool := range p.Pools {
		if _, ok := pantryPools[pool]; !ok {
			return fmt.Errorf("corpus: profile %s references unknown pool %q", p.Region, pool)
		}
	}
	return nil
}

// expectedBandIngredients returns the expected number of ingredient items
// contributed per recipe by bundles and band items.
func (p *Profile) expectedBandIngredients() float64 {
	s := 0.0
	for _, b := range p.Bundles {
		for _, it := range b.Items {
			if it.Kind == itemset.Ingredient {
				s += b.Prob
			}
		}
	}
	for _, ip := range p.Band {
		if ip.Item.Kind == itemset.Ingredient {
			s += ip.Prob
		}
	}
	return s
}

// expectedBandProcesses is the process analogue of
// expectedBandIngredients, including the universal process table.
func (p *Profile) expectedBandProcesses() float64 {
	s := 0.0
	for _, b := range p.Bundles {
		for _, it := range b.Items {
			if it.Kind == itemset.Process {
				s += b.Prob
			}
		}
	}
	for _, ip := range p.Band {
		if ip.Item.Kind == itemset.Process {
			s += ip.Prob
		}
	}
	for _, up := range universalProcesses {
		s += up.Prob
	}
	// Region-specific boosters add three universal processes each at
	// boostProb.
	s += float64(p.Boost) * 3 * boostProb
	return s
}
