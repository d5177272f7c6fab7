package cuisines

import (
	"encoding/json"
	"fmt"
	"math"

	"cuisines/internal/itemset"
	"cuisines/internal/rules"
)

// AssociationRule is one mined association rule of a cuisine: recipes
// containing the antecedent tend to also contain the consequent.
type AssociationRule struct {
	// Antecedent and Consequent hold item names in canonical order.
	Antecedent []string
	Consequent []string
	Support    float64
	Confidence float64
	Lift       float64
	// Conviction is +Inf for confidence-1 rules; IsPerfect reports that
	// case without the caller needing to handle infinities.
	Conviction float64
}

// ruleJSON is the wire form of AssociationRule: JSON has no +Inf, so
// perfect rules omit conviction and set perfect instead.
type ruleJSON struct {
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    float64  `json:"support"`
	Confidence float64  `json:"confidence"`
	Lift       float64  `json:"lift"`
	Conviction *float64 `json:"conviction,omitempty"`
	Perfect    bool     `json:"perfect,omitempty"`
}

// MarshalJSON encodes the rule, mapping the +Inf conviction of perfect
// rules to "perfect": true (JSON cannot represent infinities).
func (r AssociationRule) MarshalJSON() ([]byte, error) {
	j := ruleJSON{
		Antecedent: r.Antecedent,
		Consequent: r.Consequent,
		Support:    r.Support,
		Confidence: r.Confidence,
		Lift:       r.Lift,
	}
	if r.IsPerfect() {
		j.Perfect = true
	} else {
		j.Conviction = &r.Conviction
	}
	return json.Marshal(j)
}

// UnmarshalJSON is the inverse of MarshalJSON: "perfect": true restores
// the +Inf conviction.
func (r *AssociationRule) UnmarshalJSON(b []byte) error {
	var j ruleJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*r = AssociationRule{
		Antecedent: j.Antecedent,
		Consequent: j.Consequent,
		Support:    j.Support,
		Confidence: j.Confidence,
		Lift:       j.Lift,
	}
	switch {
	case j.Perfect:
		r.Conviction = math.Inf(1)
	case j.Conviction != nil:
		r.Conviction = *j.Conviction
	}
	return nil
}

// IsPerfect reports whether the rule held in every supporting recipe
// (confidence 1).
func (r AssociationRule) IsPerfect() bool { return math.IsInf(r.Conviction, 1) }

// String renders "soy sauce + add => heat (conf 0.92, lift 2.1)".
func (r AssociationRule) String() string {
	return fmt.Sprintf("%s => %s (conf %.2f, lift %.2f)",
		joinPlus(r.Antecedent), joinPlus(r.Consequent), r.Confidence, r.Lift)
}

func joinPlus(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " + "
		}
		out += n
	}
	return out
}

// AssociationRules derives rules from a cuisine's frequent patterns
// (Sec. II/IV's association-rule framing). minConfidence <= 0 uses 0.5;
// maxRules <= 0 returns everything. Each call derives afresh: cuisined
// memoizes the rendered response per URL in its render cache.
func (a *Analysis) AssociationRules(region string, minConfidence float64, maxRules int) ([]AssociationRule, error) {
	return a.deriveRules(region, minConfidence, maxRules, false)
}

// IngredientPairings is AssociationRules restricted to rules whose items
// are all ingredients — the food-pairing view (Jain et al., Ahn et al.)
// that motivates the paper's Sec. II.
func (a *Analysis) IngredientPairings(region string, minConfidence float64, maxRules int) ([]AssociationRule, error) {
	return a.deriveRules(region, minConfidence, maxRules, true)
}

func (a *Analysis) deriveRules(region string, minConfidence float64, maxRules int, ingredientsOnly bool) ([]AssociationRule, error) {
	for _, rp := range a.figures.Mined {
		if rp.Region != region {
			continue
		}
		patterns := rp.Patterns
		if ingredientsOnly {
			patterns = nil
			for _, p := range rp.Patterns {
				if p.Items.Equal(p.Items.OfKind(itemset.Ingredient)) {
					patterns = append(patterns, p)
				}
			}
		}
		rs := rules.Generate(patterns, rules.Options{
			MinConfidence: minConfidence,
			MaxRules:      maxRules,
		})
		out := make([]AssociationRule, 0, len(rs))
		for _, r := range rs {
			out = append(out, AssociationRule{
				Antecedent: r.Antecedent.Names(),
				Consequent: r.Consequent.Names(),
				Support:    r.Support,
				Confidence: r.Confidence,
				Lift:       r.Lift,
				Conviction: r.Conviction,
			})
		}
		return out, nil
	}
	return nil, fmt.Errorf("cuisines: unknown region %q", region)
}
