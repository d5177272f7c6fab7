package itemset

import "math/bits"

// Index is a vertical bitset view of one region's recipes, built once
// per region from the corpus vocabulary (recipedb.Vocab): every item
// the region holds maps to a bitmap over transaction positions. It is
// what Eclat (internal/eclat) mines: the support of an item is a cached
// popcount, and Eclat intersects the bitmaps directly.
//
// Every bitmap is a flat []uint64 over the whole transaction universe,
// cut from one arena. One layout suffices: Eclat only intersects items
// that are at least minSupport-dense in their region (20% at the
// paper's threshold), and the largest region a query may request
// (server.MaxScale) holds about 66k transactions — about 1k words per
// bitmap.
//
// Item ids are dense, 0-based and assigned in canonical item order
// (Item.Less), so id comparison is item comparison and id-sorted slices
// are canonically sorted. The Index is immutable after construction and
// safe for concurrent readers.
type Index struct {
	items []Item     // id -> item, canonically sorted
	bms   [][]uint64 // id -> bitmap, word slices of one arena
	count []int      // id -> popcount of the item's bitmap
	n     int        // transactions indexed
	words int        // words per bitmap
}

// NewIndex indexes txns, distinct ids into items (in Item.Less order).
// It keeps only the items some transaction holds, renumbered densely in
// the same order, and retains neither argument.
func NewIndex(items []Item, txns [][]int32) *Index {
	n := len(txns)
	ix := &Index{n: n, words: (n + 63) / 64}

	local := make([]int32, len(items)) // vocabulary id -> index id + 1; 0 if absent
	for _, t := range txns {
		for _, g := range t {
			local[g] = 1
		}
	}
	for g, held := range local {
		if held != 0 {
			ix.items = append(ix.items, items[g])
			local[g] = int32(len(ix.items))
		}
	}

	ix.count = make([]int, len(ix.items))
	ix.bms = make([][]uint64, len(ix.items))
	arena := make([]uint64, len(ix.items)*ix.words)
	for i := range ix.bms {
		ix.bms[i] = arena[i*ix.words : (i+1)*ix.words : (i+1)*ix.words]
	}
	for tid, t := range txns {
		for _, g := range t {
			id := local[g] - 1
			ix.bms[id][tid>>6] |= 1 << (uint(tid) & 63)
			ix.count[id]++
		}
	}
	return ix
}

// NumTransactions returns the number of transactions indexed (including
// empty ones, which carry no bits but count toward relative support).
func (ix *Index) NumTransactions() int { return ix.n }

// NumItems returns the number of distinct items.
func (ix *Index) NumItems() int { return len(ix.items) }

// Item returns the item with the given id.
func (ix *Index) Item(id int32) Item { return ix.items[id] }

// ItemBitmap returns the item's transaction bitmap, Words() long.
// Shared index state; must not be modified or used as an intersection
// target.
func (ix *Index) ItemBitmap(id int32) []uint64 { return ix.bms[id] }

// Words returns the length of every item bitmap, and so the length an
// AndInto target over this index must have.
func (ix *Index) Words() int { return ix.words }

// Count returns the item's support count (the popcount of its bitmap).
func (ix *Index) Count(id int32) int { return ix.count[id] }

// MinCount converts a relative support threshold to the smallest
// absolute count satisfying it, sharing Dataset.MinCount's convention.
func (ix *Index) MinCount(support float64) int {
	return minCount(ix.n, support)
}

// Pattern converts a mined id set to a Pattern with relative support
// measured against the index's transaction count. ids must be the
// itemset in any order; count its support count.
func (ix *Index) Pattern(ids []int32, count int) Pattern {
	items := make([]Item, len(ids))
	for i, id := range ids {
		items[i] = ix.items[id]
	}
	return Pattern{
		Items:   NewSet(items...),
		Count:   count,
		Support: float64(count) / float64(ix.NumTransactions()),
	}
}

// AndInto sets dst = a & b and returns the popcount of the result. All
// three slices must have equal length; dst may alias a or b. This is
// the intersection kernel Eclat extends every prefix with.
func AndInto(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		v := a[i] & b[i]
		dst[i] = v
		n += bits.OnesCount64(v)
	}
	return n
}
