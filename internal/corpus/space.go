package corpus

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"cuisines/internal/itemset"
)

// itemSpace is every item the generator can draw, interned once per
// process: the universal tables, the pantry pools, every profile's band
// and bundle items and boosters, and the long-tail names. Ids are dense
// and in Item.Less order, so a recipe's sorted draws are already its
// canonical id list, and a generated corpus's vocabulary is the space
// cut down to the items it drew.
type itemSpace struct {
	items []itemset.Item // id -> item

	// Long-tail name tables: TailIngredientName(i) has id
	// tailIngredients[i], and likewise for processes and utensils.
	tailIngredients []int32
	tailProcesses   []int32
	tailUtensils    []int32
}

var space = sync.OnceValue(internSpace)

func internSpace() *itemSpace {
	var items []itemset.Item
	addProbs := func(ips []ItemProb) {
		for _, ip := range ips {
			items = append(items, itemset.Item(ip.Item))
		}
	}
	addBundles := func(bs []Bundle) {
		for _, b := range bs {
			for _, it := range b.Items {
				items = append(items, itemset.Item(it))
			}
		}
	}
	addProbs(universalIngredients)
	addProbs(universalProcesses)
	addProbs(universalUtensils)
	pools := make([]string, 0, len(pantryPools))
	for pool := range pantryPools {
		pools = append(pools, pool)
	}
	sort.Strings(pools)
	for _, pool := range pools {
		for _, n := range pantryPools[pool] {
			items = append(items, itemset.Item(ing(n)))
		}
	}
	for i, p := range Profiles() {
		addProbs(p.Band)
		addBundles(p.Bundles)
		addBundles(regionBoost(i, p.Boost))
	}
	tail := func(n int, name func(int) string, kind itemset.Kind) []itemset.Item {
		out := make([]itemset.Item, n)
		for i := range out {
			out[i] = itemset.Item{Name: name(i), Kind: kind}
		}
		items = append(items, out...)
		return out
	}
	tailIngredients := tail(len(profiles)*rareIngredientsPerRegion+sharedRareIngredients, TailIngredientName, itemset.Ingredient)
	tailProcesses := tail(backgroundProcessCount+rareProcessCount, TailProcessName, itemset.Process)
	tailUtensils := tail(backgroundUtensilCount+rareUtensilCount, TailUtensilName, itemset.Utensil)

	// The tables spell every name canonically, so an ItemRef is its
	// own item and drawing distinct refs draws distinct items.
	for _, it := range items {
		if itemset.CanonicalName(it.Name) != it.Name {
			panic(fmt.Sprintf("corpus: item name %q is not canonical", it.Name))
		}
	}
	slices.SortFunc(items, compareItems)
	sp := &itemSpace{items: slices.Compact(items)}
	sp.tailIngredients = sp.lookup(tailIngredients)
	sp.tailProcesses = sp.lookup(tailProcesses)
	sp.tailUtensils = sp.lookup(tailUtensils)
	return sp
}

// compareItems orders items as Item.Less does.
func compareItems(a, b itemset.Item) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return cmp.Compare(a.Kind, b.Kind)
}

// id returns ref's id. Every table the generator draws from is in the
// space, so a miss is a bug.
func (sp *itemSpace) id(ref ItemRef) int32 {
	id, ok := slices.BinarySearchFunc(sp.items, itemset.Item(ref), compareItems)
	if !ok {
		panic(fmt.Sprintf("corpus: item %q (%s) is not in the item space", ref.Name, ref.Kind))
	}
	return int32(id)
}

// lookup returns the ids of items.
func (sp *itemSpace) lookup(items []itemset.Item) []int32 {
	ids := make([]int32, len(items))
	for i, it := range items {
		ids[i] = sp.id(ItemRef(it))
	}
	return ids
}
