package itemset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func ing(name string) Item  { return NewItem(name, Ingredient) }
func proc(name string) Item { return NewItem(name, Process) }

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"Soy Sauce":     "soy sauce",
		"  soy   sauce": "soy sauce",
		"SOY\tSAUCE ":   "soy sauce",
		"onion":         "onion",
		"":              "",
		"  ":            "",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Ingredient.String() != "ingredient" || Process.String() != "process" || Utensil.String() != "utensil" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatalf("unknown kind renders as %q", Kind(9).String())
	}
}

func TestNewSetCanonical(t *testing.T) {
	s := NewSet(ing("salt"), ing("onion"), ing("salt"), proc("add"))
	if s.Len() != 3 {
		t.Fatalf("dedup failed: %v", s.Items())
	}
	items := s.Items()
	for i := 1; i < len(items); i++ {
		if !items[i-1].Less(items[i]) {
			t.Fatalf("not sorted: %v", items)
		}
	}
}

func TestSetSameNameDifferentKind(t *testing.T) {
	// "heat" as a process and a hypothetical ingredient must be distinct.
	s := NewSet(NewItem("heat", Process), NewItem("heat", Ingredient))
	if s.Len() != 2 {
		t.Fatal("items differing only in kind collapsed")
	}
	if s.Key() == NewSet(NewItem("heat", Process)).Key() {
		t.Fatal("keys collide across kinds")
	}
}

func TestSetContains(t *testing.T) {
	s := FromNames(Ingredient, "salt", "onion", "butter")
	if !s.Contains(ing("onion")) {
		t.Fatal("missing onion")
	}
	if s.Contains(ing("soy sauce")) {
		t.Fatal("phantom soy sauce")
	}
	if s.Contains(proc("onion")) {
		t.Fatal("kind should matter in Contains")
	}
}

func TestContainsAll(t *testing.T) {
	s := FromNames(Ingredient, "a", "b", "c", "d")
	if !s.ContainsAll(FromNames(Ingredient, "b", "d")) {
		t.Fatal("subset not detected")
	}
	if !s.ContainsAll(Set{}) {
		t.Fatal("empty set is a subset of everything")
	}
	if s.ContainsAll(FromNames(Ingredient, "b", "e")) {
		t.Fatal("non-subset accepted")
	}
	if (Set{}).ContainsAll(s) {
		t.Fatal("non-empty subset of empty set")
	}
}

func TestUnionIntersectDiff(t *testing.T) {
	a := FromNames(Ingredient, "a", "b", "c")
	b := FromNames(Ingredient, "b", "c", "d")
	if got := a.Union(b); got.String() != "a + b + c + d" {
		t.Fatalf("union = %q", got.String())
	}
	if got := a.Intersect(b); got.String() != "b + c" {
		t.Fatalf("intersect = %q", got.String())
	}
}

func TestAdd(t *testing.T) {
	s := FromNames(Ingredient, "b", "d")
	s2 := s.Add(ing("c"))
	if s2.String() != "b + c + d" {
		t.Fatalf("Add = %q", s2.String())
	}
	if s.String() != "b + d" {
		t.Fatal("Add mutated the receiver")
	}
	if s2.Add(ing("c")).Len() != 3 {
		t.Fatal("Add of existing item grew the set")
	}
}

func TestEqualAndKey(t *testing.T) {
	a := NewSet(ing("salt"), proc("add"))
	b := NewSet(proc("add"), ing("salt"))
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatal("order-insensitive equality broken")
	}
	c := NewSet(ing("salt"))
	if a.Equal(c) || a.Key() == c.Key() {
		t.Fatal("distinct sets compare equal")
	}
	if (Set{}).Key() != "" {
		t.Fatal("empty set key should be empty")
	}
}

func TestOfKindAndFilter(t *testing.T) {
	s := NewSet(ing("salt"), proc("add"), proc("heat"), NewItem("bowl", Utensil))
	if got := s.OfKind(Process).String(); got != "add + heat" {
		t.Fatalf("OfKind(Process) = %q", got)
	}
	if got := s.OfKind(Utensil).Len(); got != 1 {
		t.Fatalf("OfKind(Utensil) len = %d", got)
	}
	long := s.Filter(func(it Item) bool { return len(it.Name) == 4 })
	if long.String() != "bowl + heat + salt" {
		t.Fatalf("Filter = %q", long.String())
	}
}

func TestDatasetSupport(t *testing.T) {
	d := NewDataset([]Transaction{
		{ID: "1", Items: FromNames(Ingredient, "salt", "onion")},
		{ID: "2", Items: FromNames(Ingredient, "salt")},
		{ID: "3", Items: FromNames(Ingredient, "onion", "butter")},
		{ID: "4", Items: FromNames(Ingredient, "salt", "onion", "butter")},
	})
	if got := d.Support(FromNames(Ingredient, "salt")); got != 0.75 {
		t.Fatalf("support(salt) = %v", got)
	}
	if got := d.Support(FromNames(Ingredient, "salt", "onion")); got != 0.5 {
		t.Fatalf("support(salt,onion) = %v", got)
	}
	if got := d.Support(Set{}); got != 1 {
		t.Fatalf("support(empty) = %v", got)
	}
	if got := (&Dataset{}).Support(Set{}); got != 0 {
		t.Fatalf("support on empty dataset = %v", got)
	}
}

func TestDatasetMinCount(t *testing.T) {
	d := NewDataset(make([]Transaction, 10))
	cases := []struct {
		support float64
		want    int
	}{
		{0.2, 2}, {0.25, 3}, {0.01, 1}, {0, 1}, {-1, 1}, {1, 10}, {5, 5},
	}
	for _, c := range cases {
		if got := d.MinCount(c.support); got != c.want {
			t.Errorf("MinCount(%v) = %d, want %d", c.support, got, c.want)
		}
	}
}

func TestItemCounts(t *testing.T) {
	d := NewDataset([]Transaction{
		{Items: FromNames(Ingredient, "salt", "onion")},
		{Items: FromNames(Ingredient, "salt")},
	})
	counts := d.ItemCounts()
	if counts[ing("salt")] != 2 || counts[ing("onion")] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestStringPattern(t *testing.T) {
	p := Pattern{Items: NewSet(ing("soy sauce"), proc("add"), proc("heat"))}
	if got := p.StringPattern(); got != "add+heat+soy sauce" {
		t.Fatalf("StringPattern = %q", got)
	}
	if got := p.Items.String(); got != "add + heat + soy sauce" {
		t.Fatalf("String = %q", got)
	}
}

func TestSortPatterns(t *testing.T) {
	ps := []Pattern{
		{Items: FromNames(Ingredient, "b"), Support: 0.3},
		{Items: FromNames(Ingredient, "a", "b"), Support: 0.5},
		{Items: FromNames(Ingredient, "a"), Support: 0.5},
		{Items: FromNames(Ingredient, "c"), Support: 0.5},
	}
	SortPatterns(ps)
	want := []string{"a", "c", "a+b", "b"}
	for i, p := range ps {
		if p.StringPattern() != want[i] {
			t.Fatalf("sorted order %v", ps)
		}
	}
}

// --- property-based tests -------------------------------------------------

// randomSet builds a set from random small-alphabet names so subset
// relations occur frequently.
func randomSet(r *rand.Rand) Set {
	n := r.Intn(6)
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, Item{Name: string(rune('a' + r.Intn(8))), Kind: Kind(r.Intn(3))})
	}
	return NewSet(items...)
}

func TestSetAlgebraProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomSet(r), randomSet(r)
		u := a.Union(b)
		inter := a.Intersect(b)
		// |A| + |B| = |A∪B| + |A∩B|
		if a.Len()+b.Len() != u.Len()+inter.Len() {
			t.Fatalf("inclusion-exclusion violated: %v %v", a, b)
		}
		// A∩B ⊆ A ⊆ A∪B
		if !a.ContainsAll(inter) || !u.ContainsAll(a) {
			t.Fatalf("subset chain violated: %v %v", a, b)
		}
		// commutativity
		if !u.Equal(b.Union(a)) || !inter.Equal(b.Intersect(a)) {
			t.Fatalf("commutativity violated: %v %v", a, b)
		}
	}
}

func TestNewSetIdempotentProperty(t *testing.T) {
	f := func(names []string) bool {
		items := make([]Item, len(names))
		for i, n := range names {
			items[i] = NewItem(n, Ingredient)
		}
		s := NewSet(items...)
		s2 := NewSet(s.Items()...)
		return s.Equal(s2) && s.Key() == s2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSupportAntiMonotoneProperty(t *testing.T) {
	// support(superset) <= support(subset) on random datasets.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		ts := make([]Transaction, 30)
		for i := range ts {
			ts[i] = Transaction{Items: randomSet(r)}
		}
		d := NewDataset(ts)
		a := randomSet(r)
		b := a.Union(randomSet(r)) // b ⊇ a
		if d.Support(b) > d.Support(a)+1e-12 {
			t.Fatalf("anti-monotonicity violated: supp(%v)=%v > supp(%v)=%v",
				b, d.Support(b), a, d.Support(a))
		}
	}
}

func TestSortPatternsDeterministicProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		ps := make([]Pattern, 20)
		for i := range ps {
			s := randomSet(r)
			ps[i] = Pattern{Items: s, Support: float64(r.Intn(5)) / 5}
		}
		a := make([]Pattern, len(ps))
		b := make([]Pattern, len(ps))
		copy(a, ps)
		copy(b, ps)
		// shuffle b differently, then sort both
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		SortPatterns(a)
		SortPatterns(b)
		as := make([]string, len(a))
		bs := make([]string, len(b))
		for i := range a {
			as[i] = a[i].String()
			bs[i] = b[i].String()
		}
		sort.Strings(as)
		sort.Strings(bs)
		if !reflect.DeepEqual(as, bs) {
			t.Fatal("sort changed multiset of patterns")
		}
	}
}
