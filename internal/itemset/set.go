package itemset

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a canonical itemset: items sorted by Item.Less with no
// duplicates. The zero value is the empty set. Construct with NewSet (or
// keep the invariant manually when the input is already canonical).
//
// Sets correspond to Python frozensets in the paper's pipeline; keeping
// them sorted makes equality, hashing (via Key) and subset tests cheap
// without a map allocation per set.
type Set struct {
	items []Item
}

// NewSet builds a canonical set from arbitrary items, de-duplicating and
// sorting.
func NewSet(items ...Item) Set {
	if len(items) == 0 {
		return Set{}
	}
	cp := make([]Item, len(items))
	copy(cp, items)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	out := cp[:1]
	for _, it := range cp[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return Set{items: out}
}

// SetFromSorted wraps items already in canonical order (sorted by
// Item.Less, no duplicates) without copying — the flat artifact codec
// uses it to build pattern sets that subslice one decoded arena. The
// order is verified in O(n); any violation is an error, so a corrupted
// payload surfaces as a decode failure instead of a malformed Set. The
// caller must not modify items afterwards.
func SetFromSorted(items []Item) (Set, error) {
	for i := 1; i < len(items); i++ {
		if !items[i-1].Less(items[i]) {
			return Set{}, fmt.Errorf("itemset: items not in canonical order at %d: %v !< %v", i, items[i-1], items[i])
		}
	}
	if len(items) == 0 {
		return Set{}, nil
	}
	return Set{items: items}, nil
}

// FromNames builds a set of items of one kind from raw names.
func FromNames(kind Kind, names ...string) Set {
	items := make([]Item, 0, len(names))
	for _, n := range names {
		items = append(items, NewItem(n, kind))
	}
	return NewSet(items...)
}

// Len returns the number of items.
func (s Set) Len() int { return len(s.items) }

// Empty reports whether the set has no items.
func (s Set) Empty() bool { return len(s.items) == 0 }

// Items returns the items in canonical order. The returned slice must not
// be modified.
func (s Set) Items() []Item { return s.items }

// At returns the i-th item in canonical order.
func (s Set) At(i int) Item { return s.items[i] }

// Contains reports whether the set contains the item (binary search).
func (s Set) Contains(it Item) bool {
	i := sort.Search(len(s.items), func(i int) bool { return !s.items[i].Less(it) })
	return i < len(s.items) && s.items[i] == it
}

// ContainsAll reports whether every item of sub is in s, i.e. sub ⊆ s.
// Both sets are sorted, so this is a linear merge.
func (s Set) ContainsAll(sub Set) bool {
	i, j := 0, 0
	for i < len(s.items) && j < len(sub.items) {
		switch {
		case s.items[i] == sub.items[j]:
			i++
			j++
		case s.items[i].Less(sub.items[j]):
			i++
		default:
			return false
		}
	}
	return j == len(sub.items)
}

// Equal reports whether the two sets contain exactly the same items.
func (s Set) Equal(other Set) bool {
	if len(s.items) != len(other.items) {
		return false
	}
	for i := range s.items {
		if s.items[i] != other.items[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ other.
func (s Set) Union(other Set) Set {
	out := make([]Item, 0, len(s.items)+len(other.items))
	i, j := 0, 0
	for i < len(s.items) && j < len(other.items) {
		switch {
		case s.items[i] == other.items[j]:
			out = append(out, s.items[i])
			i++
			j++
		case s.items[i].Less(other.items[j]):
			out = append(out, s.items[i])
			i++
		default:
			out = append(out, other.items[j])
			j++
		}
	}
	out = append(out, s.items[i:]...)
	out = append(out, other.items[j:]...)
	return Set{items: out}
}

// Intersect returns s ∩ other.
func (s Set) Intersect(other Set) Set {
	var out []Item
	i, j := 0, 0
	for i < len(s.items) && j < len(other.items) {
		switch {
		case s.items[i] == other.items[j]:
			out = append(out, s.items[i])
			i++
			j++
		case s.items[i].Less(other.items[j]):
			i++
		default:
			j++
		}
	}
	return Set{items: out}
}

// Add returns a new set with the item inserted.
func (s Set) Add(it Item) Set {
	if s.Contains(it) {
		return s
	}
	out := make([]Item, 0, len(s.items)+1)
	i := sort.Search(len(s.items), func(i int) bool { return !s.items[i].Less(it) })
	out = append(out, s.items[:i]...)
	out = append(out, it)
	out = append(out, s.items[i:]...)
	return Set{items: out}
}

// Key returns a canonical string key for map usage: item names joined by
// '\x1f' (unit separator, which cannot occur in canonical names). Two sets
// of items with equal names but different kinds produce different keys only
// through ordering; kind is folded in explicitly to be safe.
func (s Set) Key() string {
	if len(s.items) == 0 {
		return ""
	}
	var b strings.Builder
	for i, it := range s.items {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(it.Name)
		b.WriteByte('\x1e')
		b.WriteByte(byte('0') + byte(it.Kind))
	}
	return b.String()
}

// String renders the set as "a + b + c", matching the Table I pattern
// notation.
func (s Set) String() string {
	names := make([]string, len(s.items))
	for i, it := range s.items {
		names[i] = it.Name
	}
	return strings.Join(names, " + ")
}

// Names returns the item names in canonical order.
func (s Set) Names() []string {
	names := make([]string, len(s.items))
	for i, it := range s.items {
		names[i] = it.Name
	}
	return names
}

// Filter returns the subset of items for which keep returns true.
func (s Set) Filter(keep func(Item) bool) Set {
	var out []Item
	for _, it := range s.items {
		if keep(it) {
			out = append(out, it)
		}
	}
	return Set{items: out}
}

// OfKind returns the subset of items of the given kind.
func (s Set) OfKind(k Kind) Set {
	return s.Filter(func(it Item) bool { return it.Kind == k })
}
