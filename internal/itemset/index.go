package itemset

import (
	"math/bits"
	"sort"
)

// Index is a vertical bitset view of a Dataset: every distinct item maps
// to a bitmap over transaction positions. It is what Eclat
// (internal/eclat) mines — built once per region: the support of an
// item is a cached popcount, and Eclat intersects the bitmaps directly
// instead of merging tid lists.
//
// Bitmaps come in two layouts (see bitmap.go): the dense flat []uint64
// of the seed implementation, and roaring-style chunked containers for
// sparse universes. The layout is resolved once per index — by density
// under ModeAuto, or forced via NewIndexMode — and never changes any
// mined output, only the cost of intersections (pinned by the dense/
// chunked equivalence tests in internal/miner, arbitrated by the P6
// benchmark in BENCH_6.json).
//
// Item ids are dense, 0-based and assigned in canonical item order
// (Item.Less), so id comparison is item comparison and id-sorted slices
// are canonically sorted. The Index is immutable after construction and
// safe for concurrent readers.
type Index struct {
	items []Item    // id -> item, canonically sorted
	bms   []Bitmap  // id -> bitmap (dense ones are word slices of one arena)
	count []int     // id -> popcount of the item's bitmap
	n     int       // transactions indexed
	words int       // words per dense bitmap
	mode  IndexMode // resolved ModeDense or ModeChunked
}

// IndexMode selects the bitmap layout of an Index.
type IndexMode int

const (
	// ModeAuto resolves to ModeDense or ModeChunked per index by
	// density (see autoMode).
	ModeAuto IndexMode = iota
	// ModeDense forces the flat []uint64 layout (the seed layout).
	ModeDense
	// ModeChunked forces the roaring-style container layout.
	ModeChunked
)

// String returns the lowercase mode name.
func (m IndexMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDense:
		return "dense"
	case ModeChunked:
		return "chunked"
	default:
		return "mode(?)"
	}
}

// DefaultIndexMode is the layout NewIndex uses. ModeAuto lets each index
// pick by its own density; the thresholds and this default are
// arbitrated by the P6 benchmark (BENCH_6.json) — it is a pure
// performance knob that never changes mined output.
var DefaultIndexMode = ModeAuto

// autoMode resolves ModeAuto for a universe of n transactions holding
// totalBits set bits across numItems item bitmaps. Chunked pays off when
// bitmaps are sparse enough that walking a container's population beats
// scanning every word of a flat bitmap, and the universe is wide enough
// for the per-container bookkeeping to amortize; tiny or dense universes
// stay on the flat layout, which is a plain word loop over a few cache
// lines.
func autoMode(totalBits, numItems, n int) IndexMode {
	if n < 1024 || numItems == 0 {
		return ModeDense
	}
	if float64(totalBits) <= float64(numItems)*float64(n)/64 {
		return ModeChunked
	}
	return ModeDense
}

// NewIndex builds the vertical index of the dataset in DefaultIndexMode.
// Cost is one pass to collect the vocabulary plus one pass to fill the
// bitmaps; the result is self-contained and does not retain the Dataset.
func NewIndex(d *Dataset) *Index {
	return NewIndexMode(d, DefaultIndexMode)
}

// NewIndexMode is NewIndex with an explicit bitmap layout.
func NewIndexMode(d *Dataset, mode IndexMode) *Index {
	n := d.Len()
	ix := &Index{n: n, words: (n + 63) / 64}

	counts := d.ItemCounts()
	ix.items = make([]Item, 0, len(counts))
	totalBits := 0
	for it, c := range counts {
		ix.items = append(ix.items, it)
		totalBits += c
	}
	sort.Slice(ix.items, func(i, j int) bool { return ix.items[i].Less(ix.items[j]) })
	idOf := make(map[Item]int32, len(ix.items))
	for i, it := range ix.items {
		idOf[it] = int32(i)
	}

	ix.mode = mode
	if ix.mode == ModeAuto {
		ix.mode = autoMode(totalBits, len(ix.items), n)
	}

	ix.count = make([]int, len(ix.items))
	ix.bms = make([]Bitmap, len(ix.items))

	switch ix.mode {
	case ModeDense:
		arena := make([]uint64, len(ix.items)*ix.words)
		for i := range ix.bms {
			ix.bms[i] = Bitmap{n: n, dense: arena[i*ix.words : (i+1)*ix.words]}
		}
		for tid, t := range d.Transactions() {
			for _, it := range t.Items.Items() {
				id := idOf[it]
				ix.bms[id].dense[tid>>6] |= 1 << (uint(tid) & 63)
				ix.count[id]++
			}
		}

	case ModeChunked:
		// Array-container storage is carved from one arena too: item id's
		// window starts at the prefix sum of the preceding items' counts
		// and is at most its total population.
		arrArena := make([]uint16, totalBits)
		offsets := make([]int32, len(ix.items)+1)
		for i, it := range ix.items {
			offsets[i+1] = offsets[i] + int32(counts[it])
		}
		used := make([]int32, len(ix.items))
		for i := range ix.bms {
			ix.bms[i].n = n
		}
		for tid, t := range d.Transactions() {
			for _, it := range t.Items.Items() {
				id := idOf[it]
				window := arrArena[offsets[id]:offsets[id+1]]
				used[id] = int32(ix.bms[id].setAscending(tid, window, int(used[id])))
				ix.count[id]++
			}
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

// Mode returns the resolved bitmap layout (ModeDense or ModeChunked).
func (ix *Index) Mode() IndexMode { return ix.mode }

// ItemBitmap returns the item's transaction bitmap in the index's
// layout. Shared index state; must not be modified or used as an
// intersection target.
func (ix *Index) ItemBitmap(id int32) *Bitmap { return &ix.bms[id] }

// Count returns the item's support count (the popcount of its bitmap).
func (ix *Index) Count(id int32) int { return ix.count[id] }

// PrepareScratch shapes b (typically pooled, possibly previously used
// against a different index) into an intersection target for this
// index's layout and universe.
func (ix *Index) PrepareScratch(b *Bitmap) {
	if ix.mode == ModeDense {
		b.ensureDense(ix.words)
		b.n = ix.n
		return
	}
	b.reset(ix.n)
}

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
// three slices must have equal length; dst may alias a or b. This is the
// dense-layout intersection kernel; AndBitmaps is the layout-agnostic
// form.
func AndInto(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		v := a[i] & b[i]
		dst[i] = v
		n += bits.OnesCount64(v)
	}
	return n
}
