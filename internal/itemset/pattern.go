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

// PatternKey returns a canonical map key for the pattern's itemset.
func PatternKey(p Pattern) string { return p.Items.Key() }

// DedupePatterns removes duplicate itemsets, keeping the first occurrence,
// and returns the deduplicated slice. The input order is preserved.
func DedupePatterns(ps []Pattern) []Pattern {
	seen := make(map[string]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		k := p.Items.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	return out
}

// filterSubsumed keeps the patterns for which no strictly longer
// pattern q with subsumes(p, q) exists, preserving input order. A
// pattern can only be subsumed by a strictly longer one, so each
// pattern is compared against the length buckets above its own instead
// of the whole slice: for the typical support-sorted slices the miners
// emit (many short patterns, few long ones) that removes most of the
// quadratic work.
func filterSubsumed(ps []Pattern, subsumes func(p, q Pattern) bool) []Pattern {
	idxBySize := make(map[int][]int)
	for i, p := range ps {
		n := p.Items.Len()
		idxBySize[n] = append(idxBySize[n], i)
	}
	sizes := make([]int, 0, len(idxBySize))
	for n := range idxBySize {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)

	var out []Pattern
	for _, p := range ps {
		keep := true
	scan:
		// Only buckets of strictly greater size can hold a subsumer.
		for _, sz := range sizes[sort.SearchInts(sizes, p.Items.Len()+1):] {
			for _, j := range idxBySize[sz] {
				if subsumes(p, ps[j]) {
					keep = false
					break scan
				}
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out
}

// MaximalPatterns filters to patterns with no frequent proper superset
// in the same slice, preserving input order. Patterns are compared
// against strictly longer ones only (length-bucketed), since a superset
// is always strictly larger.
func MaximalPatterns(ps []Pattern) []Pattern {
	return filterSubsumed(ps, func(p, q Pattern) bool {
		return q.Items.ContainsAll(p.Items)
	})
}

// ClosedPatterns filters to closed patterns: no proper superset with the
// same support count. Input order is preserved.
func ClosedPatterns(ps []Pattern) []Pattern {
	return filterSubsumed(ps, func(p, q Pattern) bool {
		return q.Count == p.Count && q.Items.ContainsAll(p.Items)
	})
}
