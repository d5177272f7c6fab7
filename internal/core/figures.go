package core

import (
	"cuisines/internal/authenticity"
	"cuisines/internal/distance"
	"cuisines/internal/encode"
	"cuisines/internal/hac"
	"cuisines/internal/itemset"
	"cuisines/internal/kmeans"
	"cuisines/internal/parallel"
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
	// Distances is unused: LinkTree leaves it nil and the tree codec
	// does not carry it, since the matrix a tree was linked from is the
	// pdist or geodist artifact its key names. The field remains only
	// because the benchmark module's replay names it.
	Distances *distance.Condensed
	Metric    distance.Metric
	Linkage   hac.Method
}

// LinkTree is the tree step of every figure: condensed distances ->
// hac.Cluster(method) -> dendrogram over labels. Callers compute their
// own distances (a pdist over a feature matrix, or the geographic
// great-circle matrix); metric labels the tree and does not enter the
// linkage. It is the pipeline's tree stage (bootstrap replicates
// included, which run through the pipeline) and the tail of the
// per-kind trees.
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
		Name:    name,
		Tree:    tree,
		Metric:  metric,
		Linkage: method,
	}, nil
}

// AuthMinRegionPrevalence is the Fig. 5 long-tail cutoff: items whose
// prevalence never reaches it in any region are dropped from the
// authenticity matrix. The staged pipeline (internal/pipeline) makes it
// part of the auth stage key.
const AuthMinRegionPrevalence = 0.03

// ElbowKMax and ElbowSeed pin the Fig. 1 sweep; the staged pipeline
// keys the elbow artifact on both.
const (
	ElbowKMax = 15
	ElbowSeed = 1
)

// SplitWorkers splits a resolved worker budget between the five-way
// dendrogram fan-out and each chain's interior pdist so outer*inner
// never exceeds it: a knob of 4 runs four chains concurrently with
// sequential interiors, a knob of 16 runs all five with three workers
// each. The split depends only on the worker count, never on
// scheduling.
func SplitWorkers(workers int) (outer, inner int) {
	w := parallel.Count(workers)
	outer = w
	if outer > 5 {
		outer = 5
	}
	return outer, w / outer
}

// BuildPatternFeatures derives Table I and the anchored binary pattern
// feature matrix from a mining run — the staged pipeline's "matrices"
// step.
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
// Elbow is nil in every Figures the staged pipeline builds: Fig. 1 is
// resolved on demand (pipeline.Result.Elbow), and Validate never reads
// it. The field stays while the benchmark module's replay still fills
// it; dropping it is a change to bench/replay.go.
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
