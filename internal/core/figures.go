package core

import (
	"fmt"

	"cuisines/internal/authenticity"
	"cuisines/internal/distance"
	"cuisines/internal/encode"
	"cuisines/internal/geo"
	"cuisines/internal/hac"
	"cuisines/internal/itemset"
	"cuisines/internal/kmeans"
	"cuisines/internal/parallel"
	"cuisines/internal/recipedb"
)

// DefaultLinkage is the linkage method used for the cosine, Jaccard,
// authenticity and geographic dendrograms. Average (UPGMA) is the
// conventional choice for feature-derived cuisine trees; the A2 ablation
// bench sweeps the alternatives.
const DefaultLinkage = hac.Average

// EuclideanLinkage is the linkage used for the Fig. 2 Euclidean pattern
// tree: Ward, matching the sklearn convention the paper's toolchain
// defaults to (AgglomerativeClustering uses Ward, which is defined only
// for Euclidean distances — the reason the other metrics fall back to
// average linkage). Ward also neutralizes the pattern-count size bias
// that otherwise dominates raw Euclidean distances between binary
// pattern vectors.
const EuclideanLinkage = hac.Ward

// CuisineTree bundles a dendrogram with the pipeline that produced it.
type CuisineTree struct {
	// Name identifies the experiment ("fig2-euclidean", ...).
	Name string
	Tree *hac.Tree
	// Distances is the condensed matrix the tree was linked from.
	Distances *distance.Condensed
	Metric    distance.Metric
	Linkage   hac.Method
}

// LinkTree is the tree step of every figure: condensed distances ->
// hac.Cluster(method) -> dendrogram over labels. Callers compute their
// own distances (a pdist over a feature matrix, or the geographic
// great-circle matrix); metric labels the tree and does not enter the
// linkage. It is the pipeline's tree stage (bootstrap replicates
// included, which run through the pipeline) and the tail of
// BuildFiguresWorkers and the per-kind trees.
func LinkTree(name string, d *distance.Condensed, labels []string, metric distance.Metric, method hac.Method) (*CuisineTree, error) {
	lk, err := hac.Cluster(d, method)
	if err != nil {
		return nil, err
	}
	tree, err := hac.BuildTree(lk, labels)
	if err != nil {
		return nil, err
	}
	return &CuisineTree{
		Name:      name,
		Tree:      tree,
		Distances: d,
		Metric:    metric,
		Linkage:   method,
	}, nil
}

// AuthMinRegionPrevalence is the Fig. 5 long-tail cutoff: items whose
// prevalence never reaches it in any region are dropped from the
// authenticity matrix. Shared by the monolithic build below and the
// staged pipeline (internal/pipeline), where it is part of the auth
// stage key.
const AuthMinRegionPrevalence = 0.03

// ElbowKMax and ElbowSeed pin the Fig. 1 sweep; the staged pipeline
// keys the elbow artifact on both.
const (
	ElbowKMax = 15
	ElbowSeed = 1
)

// SplitWorkers splits a resolved worker budget between the six-way
// figure fan-out and each figure's interior pdist / k-sweep so
// outer*inner never exceeds it: a knob of 4 runs four figures
// concurrently with sequential interiors, a knob of 16 runs all six
// with two workers each. The split depends only on the worker count,
// never on scheduling.
func SplitWorkers(workers int) (outer, inner int) {
	w := parallel.Count(workers)
	outer = w
	if outer > 6 {
		outer = 6
	}
	return outer, w / outer
}

// BuildPatternFeatures derives Table I and the anchored binary pattern
// feature matrix from a mining run — the "matrices" step shared by
// BuildFiguresWorkers and the staged pipeline.
func BuildPatternFeatures(mined []RegionPatterns, minSupport float64) (*Table1, *encode.PatternMatrix, error) {
	ranker := NewRanker(mined, 0)
	t1 := &Table1{MinSupport: minSupport}
	for _, rp := range mined {
		t1.Rows = append(t1.Rows, Table1Row{
			Region:   rp.Region,
			Recipes:  rp.Recipes,
			Top:      ranker.Top(rp.Patterns, 3),
			Patterns: len(rp.Patterns),
		})
	}
	regions, patternSets := PatternSets(mined)
	pm, err := encode.BuildPatternMatrix(regions, AnchoredPatterns(patternSets), encode.Binary)
	if err != nil {
		return nil, nil, err
	}
	return t1, pm, nil
}

// Figures is the complete artifact set of the paper's evaluation.
type Figures struct {
	Table1    *Table1
	Elbow     *kmeans.ElbowCurve    // Fig. 1
	Euclidean *CuisineTree          // Fig. 2
	Cosine    *CuisineTree          // Fig. 3
	Jaccard   *CuisineTree          // Fig. 4
	Auth      *CuisineTree          // Fig. 5
	Geo       *CuisineTree          // Fig. 6
	Patterns  *encode.PatternMatrix // shared feature matrix (Figs. 1-4)
	AuthMat   *authenticity.Matrix  // shared authenticity matrix (Fig. 5)
	Mined     []RegionPatterns      // per-cuisine Eclat output
}

// AnchoredPatterns filters out pure-process patterns (cooking grammar
// such as "add + heat" and the regional technique combinations), keeping
// patterns anchored on at least one ingredient or utensil. The clustering
// features use the anchored set: process grammar is near-universal and
// only adds size noise to the geometry, mirroring the significance
// ranker's headline exclusion.
func AnchoredPatterns(sets [][]itemset.Pattern) [][]itemset.Pattern {
	out := make([][]itemset.Pattern, len(sets))
	for i, ps := range sets {
		for _, p := range ps {
			anchored := false
			for _, it := range p.Items.Items() {
				if it.Kind != itemset.Process {
					anchored = true
					break
				}
			}
			if anchored {
				out[i] = append(out[i], p)
			}
		}
	}
	return out
}

// BuildFiguresWorkers runs the whole evaluation on a database in one
// call, without the staged pipeline's artifact store. It is the
// reference the pipeline is pinned against (TestByteIdentityWithMonolithicBuild)
// and what BenchmarkBuildFiguresParallel measures; every shipped command
// builds its figures through internal/pipeline. method is the linkage
// for the cosine/Jaccard/authenticity/geographic trees (the Euclidean
// pattern tree always uses EuclideanLinkage). workers <= 0 means
// GOMAXPROCS and 1 forces the fully sequential path. The build
// parallelizes at two grains: the per-cuisine Eclat runs fan out first
// over the full budget, then the six independent figure builds (the
// Fig. 1 elbow sweep, the three pattern trees, the authenticity matrix
// + tree, and the geographic tree) run concurrently, with the budget
// split between the outer fan-out and each figure's inner pdist /
// k-sweep so the total concurrency stays bounded by workers rather than
// multiplying across the nesting. Each figure lands in its own slot and
// depends only on the immutable inputs, so the artifact set is
// identical to the sequential build for any worker count.
func BuildFiguresWorkers(db *recipedb.DB, minSupport float64, method hac.Method, workers int) (*Figures, error) {
	if minSupport <= 0 {
		minSupport = DefaultMinSupport
	}
	mined, err := MineRegionsWorkers(db, minSupport, workers)
	if err != nil {
		return nil, err
	}
	t1, pm, err := BuildPatternFeatures(mined, minSupport)
	if err != nil {
		return nil, err
	}
	if pm.X.Rows() < 2 {
		return nil, fmt.Errorf("core: need at least two cuisines, have %d", pm.X.Rows())
	}
	outer, inner := SplitWorkers(workers)
	figs := &Figures{Table1: t1, Patterns: pm, Mined: mined}
	patternTree := func(metric distance.Metric, method hac.Method) (*CuisineTree, error) {
		d := distance.PdistWorkers(pm.X, metric, inner)
		return LinkTree("patterns-"+metric.String(), d, pm.Regions, metric, method)
	}
	err = parallel.Do(outer,
		func() (err error) {
			figs.Elbow, err = kmeans.Elbow(pm.X, ElbowKMax, kmeans.Options{Seed: ElbowSeed, Workers: inner})
			return err
		},
		func() (err error) {
			figs.Euclidean, err = patternTree(distance.Euclidean, EuclideanLinkage)
			return err
		},
		func() (err error) {
			figs.Cosine, err = patternTree(distance.Cosine, method)
			return err
		},
		func() (err error) {
			figs.Jaccard, err = patternTree(distance.Jaccard, method)
			return err
		},
		func() (err error) {
			am, err := authenticity.Build(db, authenticity.Options{MinRegionPrevalence: AuthMinRegionPrevalence})
			if err != nil {
				return err
			}
			figs.AuthMat = am
			d := distance.PdistWorkers(am.FeatureMatrix(), distance.Euclidean, inner)
			figs.Auth, err = LinkTree("authenticity-euclidean", d, am.Regions, distance.Euclidean, method)
			return err
		},
		func() (err error) {
			d, err := geo.DistanceMatrix(db.Regions())
			if err != nil {
				return err
			}
			// Metric is a label only; the distances are haversine km.
			figs.Geo, err = LinkTree("geographic", d, db.Regions(), distance.Euclidean, method)
			return err
		},
	)
	if err != nil {
		return nil, err
	}
	return figs, nil
}
