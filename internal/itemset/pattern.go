package itemset

import (
	"fmt"
	"sort"
	"strings"
)

// Pattern is a frequent itemset together with its measured support in the
// dataset it was mined from. This corresponds to one row of the
// per-cuisine rule files the paper's pipeline produces from FP-Growth.
type Pattern struct {
	Items Set
	// Support is relative support in [0, 1].
	Support float64
	// Count is absolute support (number of transactions containing Items).
	Count int
}

// String renders "a + b (0.34)", matching Table I's notation.
func (p Pattern) String() string {
	return fmt.Sprintf("%s (%.2f)", p.Items.String(), p.Support)
}

// StringPattern returns the paper's "string pattern" encoding of the
// itemset (Sec. VI.A): the sorted element names appended together into a
// single string. This string is the categorical value fed to the label
// encoder. A '+' joiner keeps the encoding injective for multi-word item
// names.
func (p Pattern) StringPattern() string { return StringPattern(p.Items) }

// StringPattern encodes a set as the paper's sorted, concatenated string
// form.
func StringPattern(s Set) string {
	names := s.Names() // already canonically sorted
	return strings.Join(names, "+")
}

// SortPatterns orders patterns for stable reporting: by descending
// support, then ascending size, then lexicographic string pattern, with
// remaining ties (same-name items of different kinds, which the string
// pattern cannot distinguish) broken by the kind-aware canonical set
// key. The paper sorts its frozensets before stringifying; a total
// order over distinct itemsets makes every report deterministic and
// makes a miner's output one exact slice whatever its enumeration
// order, which is how Eclat is compared with its reference miner.
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Support != ps[j].Support {
			return ps[i].Support > ps[j].Support
		}
		if ps[i].Items.Len() != ps[j].Items.Len() {
			return ps[i].Items.Len() < ps[j].Items.Len()
		}
		si, sj := StringPattern(ps[i].Items), StringPattern(ps[j].Items)
		if si != sj {
			return si < sj
		}
		return ps[i].Items.Key() < ps[j].Items.Key()
	})
}
