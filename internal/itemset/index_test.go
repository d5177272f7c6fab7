package itemset

import (
	"math/rand"
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
		next := &Bitmap{}
		ix.PrepareScratch(next)
		cnt = AndBitmaps(next, cur, ix.ItemBitmap(id))
		cur = next
	}
	return cnt
}

func TestIndexBasics(t *testing.T) {
	d := NewDataset([]Transaction{
		ixTxn("a", "b"),
		ixTxn("b", "c"),
		ixTxn("a", "b", "c"),
	})
	ix := NewIndex(d)
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
		for _, mode := range []IndexMode{ModeDense, ModeChunked} {
			ix := NewIndexMode(d, mode)
			if ix.NumTransactions() != d.Len() {
				t.Fatalf("trial %d %v: transactions %d != %d", trial, mode, ix.NumTransactions(), d.Len())
			}
			// Every single item count must equal the dataset's scan.
			for id := int32(0); int(id) < ix.NumItems(); id++ {
				it := ix.Item(id)
				if got, want := ix.Count(id), d.SupportCount(NewSet(it)); got != want {
					t.Fatalf("trial %d %v: item %v count %d, dataset says %d", trial, mode, it, got, want)
				}
				if got := ix.ItemBitmap(id).Count(); got != ix.Count(id) {
					t.Fatalf("trial %d %v: cached count %d != popcount %d", trial, mode, ix.Count(id), got)
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
					t.Fatalf("trial %d %v: support of %v = %d, dataset says %d", trial, mode, items, got, want)
				}
			}
			if got := supportCount(ix, nil); got != d.Len() {
				t.Fatalf("trial %d %v: empty-set support %d != %d", trial, mode, got, d.Len())
			}
		}
	}
}

func TestIndexMinCountMatchesDataset(t *testing.T) {
	d := NewDataset([]Transaction{ixTxn("a"), ixTxn("a"), ixTxn("b")})
	ix := NewIndex(d)
	for _, sup := range []float64{0, 0.2, 0.34, 0.5, 1, 2, 5} {
		if got, want := ix.MinCount(sup), d.MinCount(sup); got != want {
			t.Errorf("MinCount(%g) = %d, dataset says %d", sup, got, want)
		}
	}
}

func TestIndexEmptyTransactionsCountTowardSupport(t *testing.T) {
	d := NewDataset([]Transaction{ixTxn("a"), {}, {}, ixTxn("a")})
	ix := NewIndex(d)
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
