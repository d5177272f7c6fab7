package core

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cuisines/internal/authenticity"
	"cuisines/internal/distance"
	"cuisines/internal/geo"
	"cuisines/internal/hac"
	"cuisines/internal/itemset"
	"cuisines/internal/recipedb"
	"cuisines/internal/treecmp"
)

// KindInfluence answers the question the paper leaves open in Sec. VIII:
// "RecipeDB is a sparse dataset in terms of utensils and processes.
// Hence, to what extent do they influence the relationships among
// cuisines is yet to be answered." For each item kind we build an
// authenticity tree from that kind alone and measure its similarity to
// the geographic tree and to the full ingredient tree.
type KindInfluence struct {
	Kind string
	// Items is the matrix width (distinct items of the kind).
	Items int
	// GeoGamma is the Baker's gamma of the kind's tree vs geography.
	GeoGamma float64
	// GeoCophenetic is the cophenetic correlation vs geography.
	GeoCophenetic float64
	// IngredientAgreement is Baker's gamma of the kind's tree vs the
	// ingredient tree — how much of the ingredient structure the kind
	// alone recovers.
	IngredientAgreement float64
}

// AnalyzeKindInfluence builds one authenticity tree per item kind and
// compares each against geography and against the ingredient tree.
func AnalyzeKindInfluence(db *recipedb.DB, method hac.Method) ([]KindInfluence, error) {
	geoDist, err := geo.DistanceMatrix(db.Regions())
	if err != nil {
		return nil, err
	}
	geoTree, err := LinkTree("geographic", geoDist, db.Regions(), distance.Euclidean, method)
	if err != nil {
		return nil, err
	}
	geoCoph := geoTree.Tree.Cophenetic()

	type kindTree struct {
		kind  itemset.Kind
		items int
		tree  *hac.Tree
	}
	var kts []kindTree
	for _, kind := range itemset.Kinds() {
		am, err := authenticity.Build(db, authenticity.Options{
			Kinds:               []itemset.Kind{kind},
			MinRegionPrevalence: AuthMinRegionPrevalence,
		})
		if err != nil {
			return nil, err
		}
		d := distance.PdistWorkers(am.FeatureMatrix(), distance.Euclidean, 0)
		ct, err := LinkTree("authenticity-euclidean", d, am.Regions, distance.Euclidean, method)
		if err != nil {
			return nil, err
		}
		kts = append(kts, kindTree{kind: kind, items: len(am.Items), tree: ct.Tree})
	}

	ingredientCoph := kts[0].tree.Cophenetic() // Kinds() starts with Ingredient
	out := make([]KindInfluence, 0, len(kts))
	for _, kt := range kts {
		coph := kt.tree.Cophenetic()
		gamma, err := treecmp.BakersGamma(coph, geoCoph)
		if err != nil {
			return nil, err
		}
		cr, err := treecmp.CopheneticCorrelation(coph, geoCoph)
		if err != nil {
			return nil, err
		}
		agree, err := treecmp.BakersGamma(coph, ingredientCoph)
		if err != nil {
			return nil, err
		}
		out = append(out, KindInfluence{
			Kind:                kt.kind.String(),
			Items:               kt.items,
			GeoGamma:            gamma,
			GeoCophenetic:       cr,
			IngredientAgreement: agree,
		})
	}
	return out, nil
}

// RenderKindInfluence writes the per-kind analysis as a table.
func RenderKindInfluence(w io.Writer, rows []KindInfluence) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Kind\tItems\tGeo gamma\tGeo coph r\tvs ingredient tree")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\n",
			r.Kind, r.Items, r.GeoGamma, r.GeoCophenetic, r.IngredientAgreement)
	}
	return tw.Flush()
}
