// Fixture for the mapiter analyzer: positive hits, the approved
// order-independent shapes, and the //lint:allow suppression path.
package core

import "sort"

// bad leaks map order into a slice with no later sort.
func bad(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order`
		out = append(out, k)
	}
	return out
}

// sortedOK is the approved collect-and-sort idiom.
func sortedOK(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortSliceOK collects values and sorts with a comparator, like
// itemset.NewIndex does with ix.items.
func sortSliceOK(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// collectNoSortBad collects but never sorts.
func collectNoSortBad(m map[string]int) []int {
	var vals []int
	for _, v := range m { // want `map iteration order`
		vals = append(vals, v)
	}
	return vals
}

// pureCountOK observes no key or value, so order cannot escape.
func pureCountOK(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// intSumOK is a commutative integer reduction.
func intSumOK(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// condCountOK counts under a condition that reads no accumulator,
// like treecmp's Robinson-Foulds symmetric difference.
func condCountOK(a, b map[string]bool) int {
	sym := 0
	for k := range a {
		if !b[k] {
			sym++
		} else {
			continue
		}
	}
	return sym
}

// floatSumBad accumulates floats: addition order changes the bits.
func floatSumBad(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order`
		sum += v
	}
	return sum
}

// perKeyOK writes each iteration to its own entry of another map,
// like significance.go's universal-item classification.
func perKeyOK(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		if v > 0 {
			out[k] = v * 2
		}
	}
	return out
}

// sameSlotBad writes every iteration to one slot: last writer wins.
func sameSlotBad(m map[string]int) map[string]int {
	out := make(map[string]int)
	for _, v := range m { // want `map iteration order`
		out["winner"] = v
	}
	return out
}

// orderReadBad latches the first-visited key — the canonical
// order-dependent loop.
func orderReadBad(m map[string]int) string {
	first := ""
	n := 0
	for k := range m { // want `map iteration order`
		if n == 0 {
			first = k
		}
		n++
	}
	return first
}

// accumCondBad counts, but a condition reads the accumulator, so the
// effect depends on visit order.
func accumCondBad(m map[string]int) int {
	n := 0
	for _, v := range m { // want `map iteration order`
		if n > 2 {
			continue
		}
		n += v
	}
	return n
}

// allowedOK carries a reasoned suppression.
func allowedOK(m map[string]int) string {
	s := ""
	//lint:allow mapiter fixture proves the reasoned directive suppresses
	for k := range m {
		s = k
	}
	return s
}

// reasonlessBad carries a reason-less directive: it suppresses
// nothing and is itself reported (see the explicit Expect in
// mapiter_test.go — a trailing want comment here would parse as the
// directive's reason).
func reasonlessBad(m map[string]int) string {
	s := ""
	//lint:allow mapiter
	for k := range m { // want `map iteration order`
		s = k
	}
	return s
}
