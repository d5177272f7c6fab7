package core

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"cuisines/internal/authenticity"
	"cuisines/internal/distance"
	"cuisines/internal/encode"
	"cuisines/internal/hac"
	"cuisines/internal/recipedb"
	"cuisines/internal/rng"
)

// Stability reports how robust the Sec. VII anecdote claims are under
// bootstrap resampling of the recipes — the "more sophisticated
// validation" the paper's future-work section calls for. Each replicate
// resamples every region's recipes with replacement, rebuilds the
// Euclidean pattern tree and the authenticity tree, and re-evaluates the
// claims; Support is the fraction of replicates in which a claim held.
type Stability struct {
	Iterations int
	// Support maps "<claim>/<tree>" to the fraction of replicates where
	// the claim held.
	Support map[string]float64
}

// anecdote is one cophenetic-inequality claim.
type anecdote struct {
	name    string
	a, b, c string // claim: a closer to b than to c
}

var anecdotes = []anecdote{
	{"canada-closer-to-france-than-us", "Canadian", "French", "US"},
	{"india-closer-to-north-africa-than-thai", "Indian Subcontinent", "Northern Africa", "Thai"},
	{"india-closer-to-north-africa-than-southeast-asian", "Indian Subcontinent", "Northern Africa", "Southeast Asian"},
}

// BootstrapClaimsWorkers runs the bootstrap; iters <= 0 defaults to
// 20. workers bounds each replicate's mining fan-out and pdist stages
// (<= 0 means GOMAXPROCS, 1 forces the sequential path). A caller that
// runs under a bounded pool (evaltrees -bootstrap with -workers N) must
// pass its bound through here, otherwise every replicate fans out over
// all cores and oversubscribes the host.
func BootstrapClaimsWorkers(db *recipedb.DB, minSupport float64, iters int, seed uint64, workers int) (*Stability, error) {
	if iters <= 0 {
		iters = 20
	}
	if minSupport <= 0 {
		minSupport = DefaultMinSupport
	}
	r := rng.New(seed)
	held := make(map[string]int)
	for it := 0; it < iters; it++ {
		boot, err := resample(db, r.Fork(), it)
		if err != nil {
			return nil, err
		}
		// Euclidean pattern tree.
		mined, err := MineRegionsWorkers(boot, minSupport, workers)
		if err != nil {
			return nil, err
		}
		regions, sets := PatternSets(mined)
		pm, err := encode.BuildPatternMatrix(regions, AnchoredPatterns(sets), encode.Binary)
		if err != nil {
			return nil, err
		}
		d := distance.PdistWorkers(pm.X, distance.Euclidean, workers)
		pTree, err := LinkTree("patterns-euclidean", d, pm.Regions, distance.Euclidean, EuclideanLinkage)
		if err != nil {
			return nil, err
		}
		// Authenticity tree.
		am, err := authenticity.Build(boot, authenticity.Options{MinRegionPrevalence: AuthMinRegionPrevalence})
		if err != nil {
			return nil, err
		}
		d = distance.PdistWorkers(am.FeatureMatrix(), distance.Euclidean, workers)
		aTree, err := LinkTree("authenticity-euclidean", d, am.Regions, distance.Euclidean, hac.Average)
		if err != nil {
			return nil, err
		}
		for _, tree := range []*CuisineTree{pTree, aTree} {
			for _, an := range anecdotes {
				hab, err := tree.Tree.MergeHeightBetween(an.a, an.b)
				if err != nil {
					return nil, err
				}
				hac, err := tree.Tree.MergeHeightBetween(an.a, an.c)
				if err != nil {
					return nil, err
				}
				if hab < hac {
					held[an.name+"/"+tree.Name]++
				}
			}
		}
	}
	st := &Stability{Iterations: iters, Support: make(map[string]float64, len(held))}
	for _, an := range anecdotes {
		for _, tree := range []string{"patterns-euclidean", "authenticity-euclidean"} {
			key := an.name + "/" + tree
			st.Support[key] = float64(held[key]) / float64(iters)
		}
	}
	return st, nil
}

// resample draws each region's recipes with replacement, preserving
// region sizes. Recipe IDs are re-minted to stay unique.
func resample(db *recipedb.DB, r *rng.RNG, round int) (*recipedb.DB, error) {
	var out []recipedb.Recipe
	for _, region := range db.Regions() {
		rs := db.RegionRecipes(region)
		for i := range rs {
			pick := rs[r.Intn(len(rs))]
			cp := *pick
			cp.ID = fmt.Sprintf("boot%d-%s-%d", round, cp.ID, i)
			out = append(out, cp)
		}
	}
	return recipedb.New(out)
}

// Render writes the stability report.
func (s *Stability) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Claim / tree\tBootstrap support (n=%d)\n", s.Iterations)
	keys := make([]string, 0, len(s.Support))
	for k := range s.Support {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(tw, "%s\t%.2f\n", k, s.Support[k])
	}
	return tw.Flush()
}
