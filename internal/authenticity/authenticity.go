// Package authenticity implements the Ahn et al. (2011) authenticity
// metric the paper adopts in Sec. V.B: the prevalence P_i^c of item i in
// cuisine c (eq. 1) and the relative prevalence p_i^c = P_i^c - <P_i^k>
// (eq. 2), the item's prevalence minus its mean prevalence over all
// cuisines. Positive relative prevalence marks items over-represented in a
// cuisine, negative marks items conspicuously absent; both ends form the
// cuisine's "culinary fingerprint". The relative prevalence matrix is the
// feature input of the Fig. 5 clustering.
package authenticity

import (
	"fmt"
	"slices"
	"sort"

	"cuisines/internal/itemset"
	"cuisines/internal/matrix"
	"cuisines/internal/recipedb"
)

// Matrix is the cuisines x items (relative) prevalence matrix.
type Matrix struct {
	// Regions are the row labels, sorted.
	Regions []string
	// Items are the column labels in canonical order.
	Items []itemset.Item
	// Prevalence is P_i^c: the fraction of region c's recipes containing
	// item i.
	Prevalence *matrix.Dense
	// Relative is p_i^c: Prevalence with each column's mean subtracted.
	Relative *matrix.Dense
}

// Options configures the matrix construction.
type Options struct {
	// Kinds restricts which item kinds enter the matrix. Empty means
	// ingredients only — the paper's Fig. 5 is "dominantly based on
	// ingredients".
	Kinds []itemset.Kind
	// MinRegionPrevalence drops items whose prevalence never reaches this
	// level in any region (pure long-tail noise that bloats the matrix;
	// 0 keeps everything).
	MinRegionPrevalence float64
}

// Build computes the prevalence matrices for a database. The recipe
// counts behind eq. 1 are tallied over the DB vocabulary's id lists,
// indexed by region row and item id.
func Build(db *recipedb.DB, opts Options) (*Matrix, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("authenticity: empty database")
	}
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = []itemset.Kind{itemset.Ingredient}
	}
	regions := db.Regions()
	sizes := make([]float64, len(regions))
	for row, r := range regions {
		sizes[row] = float64(db.RegionSize(r))
	}
	v := db.Vocab()
	n := len(v.Items())
	counts := make([]int32, len(regions)*n) // [row*n+id]: recipes of the region holding id
	for row := range regions {
		for _, rec := range v.Region(row) {
			for _, id := range rec {
				counts[row*n+int(id)]++
			}
		}
	}

	// Columns: the vocabulary's items of the wanted kinds, already in
	// canonical order, that reach MinRegionPrevalence somewhere.
	var items []itemset.Item
	var cols []int
	for id, it := range v.Items() {
		if !slices.Contains(kinds, it.Kind) {
			continue
		}
		keep := opts.MinRegionPrevalence <= 0
		for row := 0; row < len(regions) && !keep; row++ {
			keep = float64(counts[row*n+id])/sizes[row] >= opts.MinRegionPrevalence
		}
		if keep {
			items = append(items, it)
			cols = append(cols, id)
		}
	}

	prev := matrix.NewDense(len(regions), len(items))
	for col, id := range cols {
		for row := range regions {
			prev.Set(row, col, float64(counts[row*n+id])/sizes[row])
		}
	}
	rel := prev.Clone()
	rel.CenterColumns()

	return &Matrix{
		Regions:    regions,
		Items:      items,
		Prevalence: prev,
		Relative:   rel,
	}, nil
}

// RegionIndex returns the row of a region name.
func (m *Matrix) RegionIndex(region string) (int, error) {
	for i, r := range m.Regions {
		if r == region {
			return i, nil
		}
	}
	return 0, fmt.Errorf("authenticity: unknown region %q", region)
}

// AuthenticItem pairs an item with its relative prevalence in a region.
type AuthenticItem struct {
	Item     itemset.Item
	Relative float64
	// Prevalence is the raw P_i^c for context.
	Prevalence float64
}

// MostAuthentic returns the k items with the highest relative prevalence
// in the region — its positive fingerprint.
func (m *Matrix) MostAuthentic(region string, k int) ([]AuthenticItem, error) {
	return m.fingerprint(region, k, true)
}

// LeastAuthentic returns the k items with the lowest (most negative)
// relative prevalence — items the cuisine conspicuously avoids relative to
// the world (the paper: "both the most prevalent and least prevalent items
// contribute towards the culinary fingerprint").
func (m *Matrix) LeastAuthentic(region string, k int) ([]AuthenticItem, error) {
	return m.fingerprint(region, k, false)
}

func (m *Matrix) fingerprint(region string, k int, top bool) ([]AuthenticItem, error) {
	row, err := m.RegionIndex(region)
	if err != nil {
		return nil, err
	}
	out := make([]AuthenticItem, len(m.Items))
	for col, it := range m.Items {
		out[col] = AuthenticItem{Item: it, Relative: m.Relative.At(row, col), Prevalence: m.Prevalence.At(row, col)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Relative != out[j].Relative {
			if top {
				return out[i].Relative > out[j].Relative
			}
			return out[i].Relative < out[j].Relative
		}
		return out[i].Item.Less(out[j].Item)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// FeatureMatrix returns the relative prevalence matrix as clustering
// features (rows aligned with Regions).
func (m *Matrix) FeatureMatrix() *matrix.Dense { return m.Relative }
