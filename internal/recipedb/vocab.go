package recipedb

import (
	"slices"
	"sort"

	"cuisines/internal/itemset"
)

// Vocab is a DB's item vocabulary: every canonical item its recipes
// name, once, and the recipe × item incidence that mining (Sec. V.A),
// the authenticity matrix (Sec. V.B) and the corpus statistics
// (Sec. III) read. Ids are dense and in Item.Less order, so an
// ascending id list is a canonically sorted itemset. It is immutable.
type Vocab struct {
	items []itemset.Item // id -> item
	ids   []int32        // each recipe's distinct ids, ascending, back to back
	off   []int32        // recipe i holds ids[off[i]:off[i+1]]
	rows  [][]int        // region row (Regions order) -> recipe indexes
}

// Vocab returns the DB's vocabulary, built on the first call in one
// pass that canonicalises each distinct raw name of each kind once.
func (db *DB) Vocab() *Vocab {
	db.vocabOnce.Do(func() { db.vocab = buildVocab(db) })
	return db.vocab
}

func buildVocab(db *DB) *Vocab {
	total := 0
	for i := range db.recipes {
		total += len(db.recipes[i].Ingredients) + len(db.recipes[i].Processes) + len(db.recipes[i].Utensils)
	}
	v := &Vocab{ids: make([]int32, 0, total), off: make([]int32, 1, len(db.recipes)+1)}

	// Number items in first-seen order ("slots"), caching each raw name's
	// slot per kind (Ingredient, Process, Utensil).
	raw := [...]map[string]int32{{}, {}, {}}
	slotOf := make(map[itemset.Item]int32)
	var seen []itemset.Item
	for i := range db.recipes {
		r := &db.recipes[i]
		for k, names := range [...][]string{r.Ingredients, r.Processes, r.Utensils} {
			for _, name := range names {
				s, ok := raw[k][name]
				if !ok {
					it := itemset.NewItem(name, itemset.Kind(k))
					if s, ok = slotOf[it]; !ok {
						s = int32(len(seen))
						slotOf[it], seen = s, append(seen, it)
					}
					raw[k][name] = s
				}
				v.ids = append(v.ids, s)
			}
		}
		v.off = append(v.off, int32(len(v.ids)))
	}

	// Renumber slots in Item.Less order, then sort and de-duplicate each
	// recipe's ids in place, closing the gaps duplicates leave.
	order := make([]int32, len(seen)) // id -> slot
	for s := range order {
		order[s] = int32(s)
	}
	sort.Slice(order, func(a, b int) bool { return seen[order[a]].Less(seen[order[b]]) })
	idOf := make([]int32, len(seen)) // slot -> id
	v.items = make([]itemset.Item, len(seen))
	for id, s := range order {
		idOf[s], v.items[id] = int32(id), seen[s]
	}
	n, lo := int32(0), int32(0)
	for i := range db.recipes {
		rec := v.ids[lo:v.off[i+1]]
		for j, s := range rec {
			rec[j] = idOf[s]
		}
		slices.Sort(rec)
		lo = v.off[i+1]
		n += int32(copy(v.ids[n:], slices.Compact(rec)))
		v.off[i+1] = n
	}
	v.ids = v.ids[:n]

	v.rows = make([][]int, len(db.regions))
	for row, region := range db.regions {
		v.rows[row] = db.byRegion[region]
	}
	return v
}

// Items returns every item, indexed by id (shared; do not modify).
func (v *Vocab) Items() []itemset.Item { return v.items }

// Recipe returns the ascending ids of the i-th recipe's distinct items.
func (v *Vocab) Recipe(i int) []int32 { return v.ids[v.off[i]:v.off[i+1]:v.off[i+1]] }

// Region returns the id lists of the recipes of the region at row of
// DB.Regions, in DB order: the per-cuisine mining input of Sec. V.A.
func (v *Vocab) Region(row int) [][]int32 {
	out := make([][]int32, len(v.rows[row]))
	for k, i := range v.rows[row] {
		out[k] = v.Recipe(i)
	}
	return out
}
