package itemset

import "math/bits"

// This file implements the density-adaptive bitmap representation behind
// Index (DESIGN.md §10). A Bitmap stores a set of transaction ids in one
// of two layouts:
//
//   - dense: one flat []uint64 over the whole transaction universe — the
//     seed layout, unbeatable when items hit a large fraction of the
//     transactions or the universe is only a few words wide;
//   - chunked: roaring-style containers, one per populated 2^16-bit
//     chunk, each holding either a sorted []uint16 of bit offsets (array
//     container) or a packed 1024-word bitset (bitmap container),
//     whichever is smaller for its population. Sparse items pay for the
//     bits they set instead of the transactions they miss, and
//     intersections deep in the Eclat lattice shrink toward cheap
//     array-array merges as the prefixes get rarer.
//
// The two layouts never mix inside one Index: every item bitmap and
// every intersection scratch buffer of an index shares its resolved
// mode, so the intersection kernels only ever see same-layout operands.
// Which mode an index resolves to is decided per index by density (see
// autoMode), overridable via NewIndexMode; the P6/P7 benchmarks are the
// evidence behind the ModeAuto thresholds and DefaultIndexMode.

const (
	chunkBits  = 1 << 16        // transactions per chunk
	chunkWords = chunkBits / 64 // words per bitmap container
	chunkMask  = chunkBits - 1  // offset of a tid within its chunk
	// arrayMaxCard is the array→bitmap flip point per container: above
	// it, 2^16 bits packed as words (8 KiB) are smaller than the sorted
	// uint16 array and intersect in word-parallel strides. 4096 is the
	// classic roaring threshold (uint16 array of 4096 = the 8 KiB
	// break-even).
	arrayMaxCard = chunkBits / 16
)

// container is one populated 2^16-bit chunk of a chunked Bitmap. Exactly
// one of arr and words is non-nil.
type container struct {
	key   uint32   // chunk number: covers tids [key<<16, (key+1)<<16)
	card  int32    // set-bit count
	arr   []uint16 // sorted in-chunk offsets (array form)
	words []uint64 // chunkWords-long bitset (bitmap form)
}

// Bitmap is a set of transaction ids in the dense or chunked layout.
// Item bitmaps handed out by an Index are immutable shared state;
// scratch bitmaps (Index.PrepareScratch) are single-writer intersection
// targets that recycle their container storage across AndBitmaps calls.
type Bitmap struct {
	n      int // universe size (number of transactions)
	dense  []uint64
	chunks []container

	// Result-storage recycling for scratch bitmaps: array containers
	// carve from arrArena, bitmap containers reuse wordsPool entries, so
	// a warm scratch buffer absorbs intersections without allocating.
	arrArena  []uint16
	arrUsed   int
	wordsPool [][]uint64
	wordsUsed int
}

// Len returns the universe size in bits (the transaction count).
func (b *Bitmap) Len() int { return b.n }

// Dense reports whether the bitmap is in the flat []uint64 layout.
func (b *Bitmap) Dense() bool { return b.dense != nil }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	if b.dense != nil {
		n := 0
		for _, w := range b.dense {
			n += bits.OnesCount64(w)
		}
		return n
	}
	n := 0
	for i := range b.chunks {
		n += int(b.chunks[i].card)
	}
	return n
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(tid int)) {
	if b.dense != nil {
		for wi, w := range b.dense {
			for w != 0 {
				fn(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		return
	}
	for i := range b.chunks {
		c := &b.chunks[i]
		base := int(c.key) << 16
		if c.arr != nil {
			for _, off := range c.arr {
				fn(base + int(off))
			}
			continue
		}
		for wi, w := range c.words {
			for w != 0 {
				fn(base + wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}

// reset prepares b as an empty chunked intersection target over an
// n-transaction universe, recycling container storage.
func (b *Bitmap) reset(n int) {
	b.n = n
	b.dense = nil
	b.chunks = b.chunks[:0]
	b.arrUsed = 0
	b.wordsUsed = 0
}

// ensureDense prepares b as a dense intersection target of the given
// word width, reusing its buffer when wide enough.
func (b *Bitmap) ensureDense(words int) {
	b.chunks = b.chunks[:0]
	if cap(b.dense) >= words {
		b.dense = b.dense[:words]
		return
	}
	b.dense = make([]uint64, words)
}

// grabArr reserves capacity for up to n array-container entries from the
// recycled arena. Call commitArr with the final slice to advance the
// cursor. Growing abandons the old arena to any slices already carved
// from it (they keep it alive), so capacity converges after one use.
func (b *Bitmap) grabArr(n int) []uint16 {
	if b.arrUsed+n > len(b.arrArena) {
		size := 2 * (b.arrUsed + n)
		if size < chunkBits/8 {
			size = chunkBits / 8
		}
		b.arrArena = make([]uint16, size)
		b.arrUsed = 0
	}
	return b.arrArena[b.arrUsed : b.arrUsed : b.arrUsed+n]
}

func (b *Bitmap) commitArr(s []uint16) { b.arrUsed += len(s) }

// grabWords returns a recycled chunkWords-long buffer. releaseWords
// returns the most recent one (when a result converted to array form).
func (b *Bitmap) grabWords() []uint64 {
	if b.wordsUsed == len(b.wordsPool) {
		b.wordsPool = append(b.wordsPool, make([]uint64, chunkWords))
	}
	w := b.wordsPool[b.wordsUsed]
	b.wordsUsed++
	return w
}

func (b *Bitmap) releaseWords() { b.wordsUsed-- }

// AndBitmaps sets dst = a ∩ b and returns the cardinality of the result.
// a and b must share one layout and universe (bitmaps of one Index, or
// scratch results over it); dst must not alias either operand. Array
// results recycle dst's internal storage, so a pooled scratch bitmap
// intersects without allocating once warm.
func AndBitmaps(dst, a, b *Bitmap) int {
	if a.dense != nil || b.dense != nil {
		dst.ensureDense(len(a.dense))
		dst.n = a.n
		return AndInto(dst.dense, a.dense, b.dense)
	}
	dst.reset(a.n)
	total := 0
	i, j := 0, 0
	for i < len(a.chunks) && j < len(b.chunks) {
		ca, cb := &a.chunks[i], &b.chunks[j]
		switch {
		case ca.key < cb.key:
			i++
		case cb.key < ca.key:
			j++
		default:
			total += intersectContainers(dst, ca, cb)
			i++
			j++
		}
	}
	return total
}

// intersectContainers appends ca ∩ cb to dst.chunks (omitting empty
// results) and returns its cardinality. The result container picks its
// own form by density: array-involved intersections can only shrink, so
// they stay arrays; bitmap×bitmap results flip to array form when they
// fall under the threshold.
func intersectContainers(dst *Bitmap, ca, cb *container) int {
	switch {
	case ca.arr != nil && cb.arr != nil:
		small, large := ca.arr, cb.arr
		if len(small) > len(large) {
			small, large = large, small
		}
		out := dst.grabArr(len(small))
		i, j := 0, 0
		for i < len(small) && j < len(large) {
			x, y := small[i], large[j]
			switch {
			case x == y:
				out = append(out, x)
				i++
				j++
			case x < y:
				i++
			default:
				j++
			}
		}
		dst.commitArr(out)
		if len(out) == 0 {
			return 0
		}
		dst.chunks = append(dst.chunks, container{key: ca.key, card: int32(len(out)), arr: out})
		return len(out)

	case ca.arr != nil || cb.arr != nil:
		arr, words := ca.arr, cb.words
		if arr == nil {
			arr, words = cb.arr, ca.words
		}
		out := dst.grabArr(len(arr))
		for _, off := range arr {
			if words[off>>6]&(1<<(off&63)) != 0 {
				out = append(out, off)
			}
		}
		dst.commitArr(out)
		if len(out) == 0 {
			return 0
		}
		dst.chunks = append(dst.chunks, container{key: ca.key, card: int32(len(out)), arr: out})
		return len(out)

	default:
		w := dst.grabWords()
		card := 0
		for k := range w {
			v := ca.words[k] & cb.words[k]
			w[k] = v
			card += bits.OnesCount64(v)
		}
		if card == 0 {
			dst.releaseWords()
			return 0
		}
		if card <= arrayMaxCard {
			out := dst.grabArr(card)
			for wi, v := range w {
				for v != 0 {
					out = append(out, uint16(wi<<6+bits.TrailingZeros64(v)))
					v &= v - 1
				}
			}
			dst.commitArr(out)
			dst.releaseWords()
			dst.chunks = append(dst.chunks, container{key: ca.key, card: int32(card), arr: out})
			return card
		}
		dst.chunks = append(dst.chunks, container{key: ca.key, card: int32(card), words: w})
		return card
	}
}

// setAscending sets a bit in a chunked bitmap under construction. Bits
// must arrive in strictly ascending order (the transaction scan order of
// NewIndex). arena is the item's private []uint16 window for array
// containers; used tracks how much of it is consumed and is returned
// updated.
func (b *Bitmap) setAscending(tid int, arena []uint16, used int) int {
	key := uint32(tid >> 16)
	off := uint16(tid & chunkMask)
	if len(b.chunks) == 0 || b.chunks[len(b.chunks)-1].key != key {
		b.chunks = append(b.chunks, container{key: key, arr: arena[used:used:len(arena)]})
	}
	c := &b.chunks[len(b.chunks)-1]
	switch {
	case c.words != nil:
		c.words[off>>6] |= 1 << (off & 63)
	case int(c.card) == arrayMaxCard:
		// Flip to bitmap form; the abandoned array window is handed back
		// to the arena for this item's later chunks.
		w := make([]uint64, chunkWords)
		for _, o := range c.arr {
			w[o>>6] |= 1 << (o & 63)
		}
		w[off>>6] |= 1 << (off & 63)
		used -= len(c.arr)
		c.arr = nil
		c.words = w
	default:
		c.arr = append(c.arr, off)
		used++
	}
	c.card++
	return used
}
