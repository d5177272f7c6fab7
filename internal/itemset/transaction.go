package itemset

import "sort"

// Transaction is one mining input: a recipe reduced to its canonical set of
// items plus an opaque identifier. Sec. V.A: "Ingredients, utensils and
// processes were concatenated and the FP-Growth Algorithm was applied."
type Transaction struct {
	// ID identifies the source recipe (for traceability in reports).
	ID string
	// Items is the canonical itemset of the recipe.
	Items Set
}

// Dataset is an ordered collection of transactions scanned item by
// item: the brute-force reference that tests pin Index and Eclat to.
// The pipeline never builds one; it indexes recipedb.Vocab directly.
type Dataset struct {
	transactions []Transaction
}

// NewDataset wraps the given transactions. The slice is retained.
func NewDataset(ts []Transaction) *Dataset {
	return &Dataset{transactions: ts}
}

// Len returns the number of transactions.
func (d *Dataset) Len() int {
	if d == nil {
		return 0
	}
	return len(d.transactions)
}

// Transactions returns the underlying slice (not a copy).
func (d *Dataset) Transactions() []Transaction { return d.transactions }

// Index builds the bitmap index of the dataset over its own items.
func (d *Dataset) Index() *Index {
	var items []Item
	for it := range d.ItemCounts() {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Less(items[j]) })
	idOf := make(map[Item]int32, len(items))
	for id, it := range items {
		idOf[it] = int32(id)
	}
	txns := make([][]int32, d.Len())
	for t, tr := range d.transactions {
		for _, it := range tr.Items.Items() {
			txns[t] = append(txns[t], idOf[it])
		}
	}
	return NewIndex(items, txns)
}

// ItemCounts returns the number of transactions containing each item.
func (d *Dataset) ItemCounts() map[Item]int {
	counts := make(map[Item]int)
	for _, t := range d.transactions {
		for _, it := range t.Items.Items() {
			counts[it]++
		}
	}
	return counts
}

// Support returns the fraction of transactions containing every item of
// the given set. An empty set has support 1 by convention; an empty
// dataset yields 0.
func (d *Dataset) Support(s Set) float64 {
	if d.Len() == 0 {
		return 0
	}
	return float64(d.SupportCount(s)) / float64(d.Len())
}

// SupportCount returns the absolute number of transactions containing the
// set.
func (d *Dataset) SupportCount(s Set) int {
	n := 0
	for _, t := range d.transactions {
		if t.Items.ContainsAll(s) {
			n++
		}
	}
	return n
}

// MinCount converts a relative support threshold in [0,1] to the smallest
// absolute transaction count that satisfies it: ceil(support * len).
// Thresholds above 1 are interpreted as absolute counts already.
func (d *Dataset) MinCount(support float64) int {
	return minCount(d.Len(), support)
}

// minCount is the shared threshold convention behind Dataset.MinCount
// and Index.MinCount; one definition keeps the Dataset- and Index-based
// mining paths byte-identical.
func minCount(n int, support float64) int {
	if support <= 0 {
		return 1
	}
	if support > 1 {
		return int(support)
	}
	f := float64(n) * support
	c := int(f)
	if float64(c) < f {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}
