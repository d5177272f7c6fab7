package itemset

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

func ixTxn(names ...string) Transaction {
	return Transaction{Items: FromNames(Ingredient, names...)}
}

// findID resolves an item to its index id by scanning (the production
// surface needs no reverse lookup, so the tests do it by hand).
func findID(ix *Index, it Item) (int32, bool) {
	for id := int32(0); int(id) < ix.NumItems(); id++ {
		if ix.Item(id) == it {
			return id, true
		}
	}
	return 0, false
}

// supportCount folds the bitmaps of ids through scratch intersections,
// the way Eclat extends a prefix. An empty id list counts every
// transaction (the empty set's support convention).
func supportCount(ix *Index, ids []int32) int {
	if len(ids) == 0 {
		return ix.NumTransactions()
	}
	cur, cnt := ix.ItemBitmap(ids[0]), ix.Count(ids[0])
	for _, id := range ids[1:] {
		next := make([]uint64, ix.Words())
		cnt = AndInto(next, cur, ix.ItemBitmap(id))
		cur = next
	}
	return cnt
}

// popcount counts the set bits of a bitmap.
func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestIndexBasics(t *testing.T) {
	d := NewDataset([]Transaction{
		ixTxn("a", "b"),
		ixTxn("b", "c"),
		ixTxn("a", "b", "c"),
	})
	ix := d.Index()
	if ix.NumTransactions() != 3 {
		t.Fatalf("transactions = %d", ix.NumTransactions())
	}
	if ix.NumItems() != 3 {
		t.Fatalf("items = %d", ix.NumItems())
	}
	// Ids follow canonical item order.
	for id := int32(1); int(id) < ix.NumItems(); id++ {
		if !ix.Item(id - 1).Less(ix.Item(id)) {
			t.Fatalf("ids not in canonical item order at %d", id)
		}
	}
	b := NewItem("b", Ingredient)
	id, ok := findID(ix, b)
	if !ok || ix.Count(id) != 3 {
		t.Fatalf("b: id ok=%v count=%d", ok, ix.Count(id))
	}
	if _, ok := findID(ix, NewItem("zz", Ingredient)); ok {
		t.Fatal("unindexed item resolved")
	}
}

// TestNewIndexKeepsHeldItems: an index over a vocabulary keeps only
// the items its transactions hold, renumbered densely in vocabulary
// order, so a region's index never carries another region's items.
func TestNewIndexKeepsHeldItems(t *testing.T) {
	vocab := []Item{NewItem("a", Ingredient), NewItem("b", Ingredient), NewItem("b", Process), NewItem("c", Utensil)}
	ix := NewIndex(vocab, [][]int32{{1, 3}, {3}, nil})
	if ix.NumTransactions() != 3 || ix.NumItems() != 2 {
		t.Fatalf("transactions %d items %d, want 3 and 2", ix.NumTransactions(), ix.NumItems())
	}
	if ix.Item(0) != vocab[1] || ix.Item(1) != vocab[3] || ix.Count(0) != 1 || ix.Count(1) != 2 {
		t.Fatalf("items %v %v counts %d %d", ix.Item(0), ix.Item(1), ix.Count(0), ix.Count(1))
	}
	if ix.ItemBitmap(1)[0] != 0b011 {
		t.Fatalf("bitmap of c = %b, want transactions 0 and 1", ix.ItemBitmap(1)[0])
	}
}

func TestIndexSupportCountMatchesDataset(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nTxn := 1 + r.Intn(200) // spans multiple bitmap words
		txns := make([]Transaction, nTxn)
		for i := range txns {
			n := r.Intn(6)
			var items []Item
			for j := 0; j < n; j++ {
				items = append(items, NewItem(string(rune('a'+r.Intn(8))), Kind(r.Intn(3))))
			}
			txns[i] = Transaction{Items: NewSet(items...)}
		}
		d := NewDataset(txns)
		ix := d.Index()
		if ix.NumTransactions() != d.Len() {
			t.Fatalf("trial %d: transactions %d != %d", trial, ix.NumTransactions(), d.Len())
		}
		// Every single item count must equal the dataset's scan.
		for id := int32(0); int(id) < ix.NumItems(); id++ {
			it := ix.Item(id)
			if got, want := ix.Count(id), d.SupportCount(NewSet(it)); got != want {
				t.Fatalf("trial %d: item %v count %d, dataset says %d", trial, it, got, want)
			}
			if got := popcount(ix.ItemBitmap(id)); got != ix.Count(id) {
				t.Fatalf("trial %d: cached count %d != popcount %d", trial, ix.Count(id), got)
			}
			if got := len(ix.ItemBitmap(id)); got != ix.Words() {
				t.Fatalf("trial %d: bitmap of %d words, Words() = %d", trial, got, ix.Words())
			}
		}
		// Random candidate itemsets: AND-counting must equal subset scans.
		for probe := 0; probe < 20; probe++ {
			k := 1 + r.Intn(4)
			var ids []int32
			var items []Item
			for j := 0; j < k && ix.NumItems() > 0; j++ {
				id := int32(r.Intn(ix.NumItems()))
				ids = append(ids, id)
				items = append(items, ix.Item(id))
			}
			if got, want := supportCount(ix, ids), d.SupportCount(NewSet(items...)); got != want {
				t.Fatalf("trial %d: support of %v = %d, dataset says %d", trial, items, got, want)
			}
		}
		if got := supportCount(ix, nil); got != d.Len() {
			t.Fatalf("trial %d: empty-set support %d != %d", trial, got, d.Len())
		}
	}
}

func TestIndexMinCountMatchesDataset(t *testing.T) {
	d := NewDataset([]Transaction{ixTxn("a"), ixTxn("a"), ixTxn("b")})
	ix := d.Index()
	for _, sup := range []float64{0, 0.2, 0.34, 0.5, 1, 2, 5} {
		if got, want := ix.MinCount(sup), d.MinCount(sup); got != want {
			t.Errorf("MinCount(%g) = %d, dataset says %d", sup, got, want)
		}
	}
}

func TestIndexEmptyTransactionsCountTowardSupport(t *testing.T) {
	d := NewDataset([]Transaction{ixTxn("a"), {}, {}, ixTxn("a")})
	ix := d.Index()
	if ix.NumTransactions() != 4 {
		t.Fatalf("transactions = %d", ix.NumTransactions())
	}
	id, ok := findID(ix, NewItem("a", Ingredient))
	if !ok {
		t.Fatal("a not indexed")
	}
	p := ix.Pattern([]int32{id}, ix.Count(id))
	if p.Count != 2 || p.Support != 0.5 {
		t.Fatalf("pattern = %+v", p)
	}
}

func TestAndInto(t *testing.T) {
	a := []uint64{0b1010, 1 << 63}
	b := []uint64{0b0110, 1 << 63}
	dst := make([]uint64, 2)
	if got := AndInto(dst, a, b); got != 2 {
		t.Fatalf("popcount = %d", got)
	}
	if dst[0] != 0b0010 || dst[1] != 1<<63 {
		t.Fatalf("dst = %b %b", dst[0], dst[1])
	}
	// Aliasing dst with an operand is allowed.
	if got := AndInto(a, a, b); got != 2 || a[0] != 0b0010 {
		t.Fatalf("aliased AndInto = %d, a0=%b", got, a[0])
	}
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

// bitmapOf sets the tids in an n-bit bitmap.
func bitmapOf(tids []int, n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	for _, tid := range tids {
		words[tid>>6] |= 1 << (tid & 63)
	}
	return words
}

// tidsOf lists the set bits of a bitmap in ascending order.
func tidsOf(words []uint64) []int {
	var out []int
	for wi, w := range words {
		for w != 0 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
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

// TestAndIntoMatchesBruteForce is the randomized density-regime property
// test of the intersection kernel: universes that are a word multiple
// (64) and ragged (50, 1000, 65537), operand densities from 0.1% to
// 90%, and one target recycled across every trial the way the eclat
// DFS recycles its per-depth buffers, so stale bits from a previous
// trial must never survive.
func TestAndIntoMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(20200620))
	universes := []int{50, 64, 1000, 1<<16 + 1}
	densities := []float64{0.001, 0.02, 0.2, 0.9}
	var dst []uint64 // recycled target
	for _, n := range universes {
		words := (n + 63) / 64
		if cap(dst) < words {
			dst = make([]uint64, words)
		}
		dst = dst[:words]
		for _, da := range densities {
			for _, db := range densities {
				ta := randomTids(r, n, da)
				tb := randomTids(r, n, db)
				want := intersectInts(ta, tb)
				if got := AndInto(dst, bitmapOf(ta, n), bitmapOf(tb, n)); got != len(want) {
					t.Fatalf("n=%d da=%g db=%g: AndInto = %d, want %d", n, da, db, got, len(want))
				}
				if got := tidsOf(dst); !equalInts(got, want) {
					t.Fatalf("n=%d da=%g db=%g: intersection bits diverge", n, da, db)
				}
			}
		}
	}
}
