// Package eclat implements the Eclat frequent-itemset miner (Zaki 2000):
// depth-first search over the itemset lattice with vertical tidset
// intersection. The tidsets are the shared bitmap index of
// internal/itemset, flat []uint64 bitmaps over the region's
// transactions, so the inner loop is itemset.AndInto: a branch-free
// word-wise AND with a running popcount. Eclat is the repository's only
// frequent-itemset miner (core.MineRegionsWorkers runs it once per
// cuisine); internal/miner's tests pin it to a brute-force level-wise
// reference.
//
// The per-depth intersection buffers are recycled through a sync.Pool
// across mining runs, so a steady-state mine allocates only its output
// (pinned by the AllocsPerRun regression guard in eclat_test.go).
package eclat

import (
	"sort"
	"sync"

	"cuisines/internal/itemset"
)

// scratch holds the per-depth intersection bitmaps of one mining run.
// Buffer d-1 holds the intersection at recursion depth d (depth 0
// borrows the index's own bitmaps and intersects nothing); each buffer
// is overwritten only after every deeper extension of the previous
// sibling has finished with it, so one buffer per depth suffices.
type scratch struct {
	levels [][]uint64
}

// level returns the scratch bitmap for depth, ix.Words() long.
func (s *scratch) level(ix *itemset.Index, depth int) []uint64 {
	for len(s.levels) < depth {
		s.levels = append(s.levels, nil)
	}
	words := ix.Words()
	if cap(s.levels[depth-1]) < words {
		s.levels[depth-1] = make([]uint64, words)
	}
	return s.levels[depth-1][:words]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// MineIndex returns all itemsets of the index with relative support >=
// minSupport (fraction in (0,1], or absolute count if > 1), in canonical
// report order.
func MineIndex(ix *itemset.Index, minSupport float64) []itemset.Pattern {
	if ix.NumTransactions() == 0 {
		return nil
	}
	minCount := ix.MinCount(minSupport)

	// Frequent items in ascending support order (ties by item, which is
	// ascending id): extending rare prefixes first keeps the intersected
	// bitmaps sparse and the search shallow.
	type entry struct {
		id    int32
		count int
	}
	var freq []entry
	for id := int32(0); int(id) < ix.NumItems(); id++ {
		if c := ix.Count(id); c >= minCount {
			freq = append(freq, entry{id, c})
		}
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].count != freq[j].count {
			return freq[i].count < freq[j].count
		}
		return freq[i].id < freq[j].id
	})

	var out []itemset.Pattern
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Depth-first extension: each prefix holds the items chosen so far
	// and the bitmap of their intersection; extensions come from the tail
	// of the frequent item order.
	var dfs func(prefix []int32, prefixBits []uint64, start, depth int)
	dfs = func(prefix []int32, prefixBits []uint64, start, depth int) {
		for i := start; i < len(freq); i++ {
			var (
				cnt  int
				bits []uint64
			)
			if prefixBits == nil {
				cnt, bits = freq[i].count, ix.ItemBitmap(freq[i].id)
			} else {
				bits = sc.level(ix, depth)
				cnt = itemset.AndInto(bits, prefixBits, ix.ItemBitmap(freq[i].id))
			}
			if cnt < minCount {
				continue
			}
			prefix = append(prefix, freq[i].id)
			out = append(out, ix.Pattern(prefix, cnt))
			dfs(prefix, bits, i+1, depth+1)
			prefix = prefix[:len(prefix)-1]
		}
	}
	dfs(nil, nil, 0, 0)

	itemset.SortPatterns(out)
	return out
}
