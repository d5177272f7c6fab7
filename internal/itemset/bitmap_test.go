package itemset

import (
	"math/rand"
	"sort"
	"testing"
)

// chunkedFromTids builds a chunked bitmap through the same ascending
// builder NewIndex uses.
func chunkedFromTids(tids []int, n int) *Bitmap {
	b := &Bitmap{n: n}
	arena := make([]uint16, len(tids))
	used := 0
	for _, tid := range tids {
		used = b.setAscending(tid, arena, used)
	}
	return b
}

// denseFromTids builds a dense bitmap over the same universe.
func denseFromTids(tids []int, n int) *Bitmap {
	words := make([]uint64, (n+63)/64)
	for _, tid := range tids {
		words[tid>>6] |= 1 << (tid & 63)
	}
	return &Bitmap{n: n, dense: words}
}

func collect(b *Bitmap) []int {
	var out []int
	b.ForEach(func(tid int) { out = append(out, tid) })
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomTids draws a sorted, duplicate-free tid sample of the given
// density from [0, n).
func randomTids(r *rand.Rand, n int, density float64) []int {
	var tids []int
	for tid := 0; tid < n; tid++ {
		if r.Float64() < density {
			tids = append(tids, tid)
		}
	}
	return tids
}

func intersectInts(a, b []int) []int {
	in := make(map[int]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	var out []int
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// TestSetAscendingForms drives the builder across the array→bitmap flip
// and across chunk boundaries, checking Count/ForEach agree with the
// input at every shape.
func TestSetAscendingForms(t *testing.T) {
	cases := []struct {
		name string
		tids []int
		n    int
	}{
		{"empty", nil, 100},
		{"single", []int{7}, 100},
		{"array-container", seq(0, 100, 3), 1 << 16},
		{"at-flip-boundary", seq(0, arrayMaxCard, 1), 1 << 16},
		{"past-flip-boundary", seq(0, arrayMaxCard+1, 1), 1 << 16},
		{"dense-chunk", seq(0, 3*arrayMaxCard, 1), 1 << 16},
		{"multi-chunk-mixed", append(seq(0, 5000, 1), append(seq(chunkBits, chunkBits+10, 1), seq(3*chunkBits, 3*chunkBits+6000, 1)...)...), 4 * chunkBits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := chunkedFromTids(tc.tids, tc.n)
			if got := b.Count(); got != len(tc.tids) {
				t.Fatalf("Count = %d, want %d", got, len(tc.tids))
			}
			if got := collect(b); !equalInts(got, tc.tids) {
				t.Fatalf("ForEach diverges from input: got %d tids, want %d", len(got), len(tc.tids))
			}
			// Each container's form must match its population.
			for _, c := range b.chunks {
				if c.arr != nil && int(c.card) > arrayMaxCard {
					t.Errorf("chunk %d: array container with card %d > %d", c.key, c.card, arrayMaxCard)
				}
				if (c.arr == nil) == (c.words == nil) {
					t.Errorf("chunk %d: exactly one form must be set", c.key)
				}
			}
		})
	}
}

func seq(from, count, step int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = from + i*step
	}
	return out
}

// TestAndBitmapsMatchesBruteForce is the randomized density-regime
// property test of the container layer: universes from a few dozen tids
// to several chunks, operand densities from 0.1% to 90% (crossing the
// array/bitmap container threshold on both sides), dense and chunked
// layouts, one shared scratch target recycled across every trial the
// way the eclat DFS recycles its per-depth buffers.
func TestAndBitmapsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(20200620))
	universes := []int{50, 1000, 1 << 16, 1<<16 + 1, 200_000}
	densities := []float64{0.001, 0.02, 0.2, 0.9}
	dst := &Bitmap{}      // recycled chunked target
	denseDst := &Bitmap{} // recycled dense target
	for _, n := range universes {
		for _, da := range densities {
			for _, db := range densities {
				if n >= 100_000 && da >= 0.2 && db >= 0.2 {
					continue // dense×dense at scale adds time, not coverage
				}
				ta := randomTids(r, n, da)
				tb := randomTids(r, n, db)
				want := intersectInts(ta, tb)

				ca, cb := chunkedFromTids(ta, n), chunkedFromTids(tb, n)
				if got := AndBitmaps(dst, ca, cb); got != len(want) {
					t.Fatalf("n=%d da=%g db=%g: chunked AndBitmaps = %d, want %d", n, da, db, got, len(want))
				}
				if got := collect(dst); !equalInts(got, want) {
					t.Fatalf("n=%d da=%g db=%g: chunked intersection bits diverge", n, da, db)
				}

				xa, xb := denseFromTids(ta, n), denseFromTids(tb, n)
				if got := AndBitmaps(denseDst, xa, xb); got != len(want) {
					t.Fatalf("n=%d da=%g db=%g: dense AndBitmaps = %d, want %d", n, da, db, got, len(want))
				}
				if got := collect(denseDst); !equalInts(got, want) {
					t.Fatalf("n=%d da=%g db=%g: dense intersection bits diverge", n, da, db)
				}
			}
		}
	}
}

// TestAndBitmapsChainedIntersections mirrors the miner access pattern:
// fold k bitmaps through scratch targets (dst of one AND becomes an
// operand of the next), which exercises intersecting a freshly built
// scratch result — mixed array/bitmap containers included.
func TestAndBitmapsChainedIntersections(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 150_000
	sets := make([][]int, 5)
	bms := make([]*Bitmap, 5)
	for i := range sets {
		sets[i] = randomTids(r, n, []float64{0.5, 0.1, 0.04, 0.3, 0.008}[i])
		bms[i] = chunkedFromTids(sets[i], n)
	}
	want := sets[0]
	levels := make([]*Bitmap, len(bms))
	cur := bms[0]
	for i := 1; i < len(bms); i++ {
		want = intersectInts(want, sets[i])
		levels[i] = &Bitmap{}
		if got := AndBitmaps(levels[i], cur, bms[i]); got != len(want) {
			t.Fatalf("chain depth %d: count %d, want %d", i, got, len(want))
		}
		cur = levels[i]
	}
	if got := collect(cur); !equalInts(got, want) {
		t.Fatalf("chained intersection bits diverge: got %d, want %d", len(got), len(want))
	}
}
