// Package rules derives association rules from frequent itemsets — the
// "association rule discovery" framing the paper adopts from Agrawal &
// Srikant (Sec. II/IV). A rule A -> C states that recipes containing the
// antecedent A tend to also contain the consequent C; it is scored by the
// standard interestingness measures (confidence, lift, leverage,
// conviction).
//
// Rules are generated purely from a mined pattern set: every frequent
// itemset of size >= 2 is split into antecedent/consequent pairs, and the
// subset supports are looked up among the mined patterns (anti-
// monotonicity guarantees every subset of a frequent itemset was mined).
package rules

import (
	"fmt"
	"math"
	"sort"

	"cuisines/internal/itemset"
)

// Rule is one association rule with its interestingness measures.
type Rule struct {
	// Antecedent and Consequent are disjoint, non-empty itemsets.
	Antecedent itemset.Set
	Consequent itemset.Set
	// Support is the relative support of Antecedent ∪ Consequent.
	Support float64
	// Confidence is supp(A ∪ C) / supp(A), in (0, 1].
	Confidence float64
	// Lift is Confidence / supp(C); > 1 means positive association.
	Lift float64
	// Leverage is supp(A ∪ C) - supp(A)·supp(C).
	Leverage float64
	// Conviction is (1 - supp(C)) / (1 - Confidence); +Inf for
	// confidence 1 rules.
	Conviction float64
}

// String renders "a + b => c (conf 0.81, lift 2.4)".
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (conf %.2f, lift %.2f)",
		r.Antecedent.String(), r.Consequent.String(), r.Confidence, r.Lift)
}

// Options tunes rule generation.
type Options struct {
	// MinConfidence drops rules below this confidence (default 0.5).
	MinConfidence float64
	// MinLift drops rules below this lift (default 0 — keep all).
	MinLift float64
	// MaxRules caps the result size after ranking (0 = unlimited).
	MaxRules int
}

func (o Options) withDefaults() Options {
	if o.MinConfidence <= 0 {
		o.MinConfidence = 0.5
	}
	return o
}

// Generate derives rules from a frequent pattern set (as produced by
// Eclat at a single support threshold). Patterns whose subsets are
// missing from the set are skipped defensively (cannot happen with a
// complete miner output). Rules are ranked by confidence, then lift, then
// textual order.
func Generate(patterns []itemset.Pattern, opts Options) []Rule {
	opts = opts.withDefaults()
	supp := make(map[string]float64, len(patterns))
	for _, p := range patterns {
		supp[p.Items.Key()] = p.Support
	}

	var out []Rule
	for _, p := range patterns {
		n := p.Items.Len()
		if n < 2 {
			continue
		}
		items := p.Items.Items()
		// Enumerate non-empty proper subsets as antecedents.
		for mask := 1; mask < (1<<n)-1; mask++ {
			var ant, cons []itemset.Item
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					ant = append(ant, items[b])
				} else {
					cons = append(cons, items[b])
				}
			}
			aSet := itemset.NewSet(ant...)
			cSet := itemset.NewSet(cons...)
			sa, okA := supp[aSet.Key()]
			sc, okC := supp[cSet.Key()]
			if !okA || !okC || sa == 0 || sc == 0 {
				continue
			}
			conf := p.Support / sa
			if conf > 1 {
				conf = 1 // guard against floating-point drift
			}
			if conf < opts.MinConfidence {
				continue
			}
			lift := conf / sc
			if lift < opts.MinLift {
				continue
			}
			conviction := math.Inf(1)
			if conf < 1 {
				conviction = (1 - sc) / (1 - conf)
			}
			out = append(out, Rule{
				Antecedent: aSet,
				Consequent: cSet,
				Support:    p.Support,
				Confidence: conf,
				Lift:       lift,
				Leverage:   p.Support - sa*sc,
				Conviction: conviction,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Lift != out[j].Lift {
			return out[i].Lift > out[j].Lift
		}
		si, sj := out[i].String(), out[j].String()
		return si < sj
	})
	if opts.MaxRules > 0 && len(out) > opts.MaxRules {
		out = out[:opts.MaxRules]
	}
	return out
}
