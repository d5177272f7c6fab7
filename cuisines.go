// Package cuisines reproduces "Hierarchical Clustering of World Cuisines"
// (Sharma et al., 2020): frequent-pattern mining of a 118k-recipe,
// 26-cuisine RecipeDB corpus, per-cuisine culinary fingerprints, and
// hierarchical clustering of the world's cuisines under pattern-based and
// authenticity-based features, validated against geography.
//
// The package is a facade over the internal pipeline. A typical session:
//
//	a, err := cuisines.Run(cuisines.Options{Scale: 0.25})
//	if err != nil { ... }
//	fmt.Println(a.RenderTable())                       // Table I
//	s, _ := a.Dendrogram(cuisines.FigureAuthenticity)  // Fig. 5
//	fmt.Println(s)
//	for _, c := range a.Claims() {                     // Sec. VII
//		fmt.Println(c.Name, c.Holds)
//	}
//
// The corpus is synthetic but calibrated: the real RecipeDB scrape is not
// redistributable, so Run generates a corpus that reproduces the paper's
// Table I (per-cuisine recipe counts, headline patterns and supports,
// pattern-count shape), the Sec. III statistics, and the cross-cuisine
// sharing structure the clustering results depend on. See DESIGN.md.
package cuisines

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/hac"
	"cuisines/internal/kmeans"
	"cuisines/internal/miner"
	"cuisines/internal/pipeline"
	"cuisines/internal/recipedb"
)

// Options configures Run.
type Options struct {
	// Seed drives corpus generation (default: the paper's arXiv date,
	// 20200426 — the seed every number in EXPERIMENTS.md was produced
	// with).
	Seed uint64
	// Scale multiplies the Table I per-region recipe counts; 0 or 1 is
	// the full 118k corpus. Quarter scale reproduces all qualitative
	// results in a few hundred milliseconds.
	Scale float64
	// MinSupport is the pattern-mining threshold (default 0.2, Sec. IV).
	MinSupport float64
	// Linkage names the linkage method for the cosine, Jaccard,
	// authenticity and geographic trees: "single", "complete", "average"
	// (default), "weighted" or "ward". The Euclidean pattern tree always
	// uses Ward (see internal/core.EuclideanLinkage).
	Linkage string
	// Workers bounds the worker pool every parallel stage draws from:
	// per-region corpus generation, the per-cuisine mining runs, the
	// pdist row fan-outs, the concurrent construction of the five
	// dendrograms and the on-demand Fig. 1 elbow sweep. 0 (the
	// default) means runtime.GOMAXPROCS(0); 1 forces the fully
	// sequential path. Every result is byte-identical for any value —
	// parallelism only changes how fast the answer arrives, never the
	// answer (see DESIGN.md §3).
	Workers int
	// Miner names the frequent-itemset miner. Eclat is the only one,
	// so the field accepts only "" and "eclat" (any case) and
	// canonicalizes to "eclat"; it never enters a cache or artifact
	// key (see DESIGN.md §9).
	Miner string
}

// Canonical returns the Options with every default applied and the
// linkage and miner names normalized ("upgma" -> "average", "" ->
// "eclat"), rejecting unknown linkage methods and miner names. Two
// Options describe the same analysis exactly when their canonical forms
// differ only in Workers or Miner: parallelism never changes the output
// and there is only one miner, so the serving cache keys on the
// canonical form with both zeroed (DESIGN.md §7, §9). A NaN or infinite
// Scale or MinSupport is an error: a NaN key never equals itself, so no
// cache could ever hit or evict it.
func (o Options) Canonical() (Options, error) {
	if !finite(o.Scale) || !finite(o.MinSupport) {
		return Options{}, fmt.Errorf("cuisines: scale %v and min support %v must be finite", o.Scale, o.MinSupport)
	}
	if o.Seed == 0 {
		o.Seed = corpus.DefaultSeed
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.MinSupport <= 0 {
		o.MinSupport = core.DefaultMinSupport
	}
	if o.Linkage == "" {
		o.Linkage = core.DefaultLinkage.String()
	}
	method, err := hac.ParseMethod(o.Linkage)
	if err != nil {
		return Options{}, err
	}
	o.Linkage = method.String()
	m, err := miner.Parse(o.Miner)
	if err != nil {
		return Options{}, err
	}
	o.Miner = m.Name()
	return o, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Figure selects one of the paper's dendrograms.
type Figure int

const (
	// FigureEuclidean is Fig. 2: pattern features, Euclidean distance.
	FigureEuclidean Figure = iota
	// FigureCosine is Fig. 3: pattern features, cosine distance.
	FigureCosine
	// FigureJaccard is Fig. 4: pattern features, Jaccard distance.
	FigureJaccard
	// FigureAuthenticity is Fig. 5: ingredient authenticity features.
	FigureAuthenticity
	// FigureGeographic is Fig. 6: great-circle distances (validation).
	FigureGeographic

	numFigures = int(FigureGeographic) + 1
)

// AllFigures lists the five dendrogram figures in paper order.
func AllFigures() []Figure {
	return []Figure{FigureEuclidean, FigureCosine, FigureJaccard, FigureAuthenticity, FigureGeographic}
}

// ParseFigure resolves a figure name: the canonical form ("fig5-authenticity")
// or either half of it ("fig5", "authenticity"). It is the inverse of
// Figure.String and the parser the HTTP API uses for {figure} path
// segments.
func ParseFigure(s string) (Figure, error) {
	for _, f := range AllFigures() {
		name := f.String()
		if s == name {
			return f, nil
		}
		if i := strings.IndexByte(name, '-'); i >= 0 && (s == name[:i] || s == name[i+1:]) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("cuisines: unknown figure %q", s)
}

// String names the figure.
func (f Figure) String() string {
	switch f {
	case FigureEuclidean:
		return "fig2-euclidean"
	case FigureCosine:
		return "fig3-cosine"
	case FigureJaccard:
		return "fig4-jaccard"
	case FigureAuthenticity:
		return "fig5-authenticity"
	case FigureGeographic:
		return "fig6-geographic"
	default:
		return fmt.Sprintf("figure(%d)", int(f))
	}
}

// Analysis holds one full run of the paper's evaluation.
//
// Accessors that derive state from the run — the cophenetic matrices,
// the region index and the corpus statistics — memoize it on first use
// (guarded by sync.Once), so an Analysis served per-request by the
// cuisined daemon answers every repeat query without recomputation and
// is safe for concurrent use.
//
// Only Stats and FoodPairings read recipes. An Analysis from Run does
// not hold the corpus: each of the two resolves it on its first call
// from the engine's artifact store, which regenerates a missing or
// corrupt copy, and keeps only what it derives. (An Analysis from
// RunFromCSV or RunFromJSONL keeps the recipes it was given.)
type Analysis struct {
	corpus     func() (*recipedb.DB, error)
	elbow      func() (*kmeans.ElbowCurve, error)
	figures    *core.Figures
	validation *core.Validation

	statsOnce sync.Once
	stats     recipedb.Stats

	pairingsOnce sync.Once
	pairings     []FoodPairing

	regionsOnce sync.Once
	regionIdx   map[string]int

	cophOnce [numFigures]sync.Once
	coph     [numFigures]*distance.Condensed
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// CacheDir enables the persistent artifact tier: stage outputs
	// (corpus, mined patterns, matrices, distances, trees, validation)
	// are written there and reloaded by later runs — including runs in
	// a future process, which is how a restarted daemon comes back
	// warm. Empty keeps artifacts in memory only. Corrupted, truncated
	// or version-mismatched files are silently recomputed, never fatal.
	CacheDir string
	// MaxCacheBytes bounds the CacheDir tier: after each write, the
	// least recently used artifact files are deleted until the total
	// is under the cap. <= 0 means a 4 GiB default. Analysis
	// parameters are client-controlled on the daemon, so the disk tier
	// must not grow without bound.
	MaxCacheBytes int64
}

// Engine executes analyses through the staged pipeline graph
// (DESIGN.md §8) with a shared artifact store: runs that share a graph
// prefix — same corpus and mining run, different linkage or figure —
// reuse each other's cached stage outputs instead of recomputing them.
// An Engine is safe for concurrent use; concurrent runs needing the
// same stage share exactly one computation.
type Engine struct {
	pipe *pipeline.Pipeline
}

// NewEngine builds an Engine. The zero config is valid: a private
// in-memory artifact store with default bounds.
func NewEngine(cfg EngineConfig) *Engine {
	store := artifact.NewStore(artifact.Options{
		Dir:          cfg.CacheDir,
		MaxDiskBytes: cfg.MaxCacheBytes,
	})
	return &Engine{pipe: pipeline.New(store)}
}

// Run generates the calibrated corpus and executes the complete
// pipeline — per-cuisine Eclat mining, Table I significance ranking,
// the five dendrograms, and the Sec. VII validation — reusing any stage
// artifacts the engine already holds. The Fig. 1 elbow analysis runs
// on demand, on the first ElbowReport or ElbowSharp.
func (e *Engine) Run(opts Options) (*Analysis, error) {
	return e.RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: the pipeline checks ctx between
// stages, so a cancelled context (a disconnected or timed-out daemon
// request) stops the run at the next stage boundary instead of
// computing an analysis nobody is waiting for. The stage in progress
// when ctx is cancelled completes and is cached — that work still
// serves the next request for the same options.
func (e *Engine) RunContext(ctx context.Context, opts Options) (*Analysis, error) {
	opts, err := opts.Canonical()
	if err != nil {
		return nil, err
	}
	method, err := hac.ParseMethod(opts.Linkage)
	if err != nil {
		return nil, err
	}
	res, err := e.pipe.Run(ctx, pipeline.Params{
		Seed:       opts.Seed,
		Scale:      opts.Scale,
		MinSupport: opts.MinSupport,
		Method:     method,
		Workers:    opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return newAnalysis(ctx, res), nil
}

// newAnalysis wraps a pipeline result. The corpus and elbow resolvers
// keep ctx's values but not its cancellation: an accessor may run long
// after the request that built the Analysis has finished. The elbow is
// resolved at most once per Analysis.
func newAnalysis(ctx context.Context, res *pipeline.Result) *Analysis {
	ctx = context.WithoutCancel(ctx)
	return &Analysis{
		corpus:     func() (*recipedb.DB, error) { return res.DB(ctx) },
		elbow:      sync.OnceValues(func() (*kmeans.ElbowCurve, error) { return res.Elbow(ctx) }),
		figures:    res.Figures,
		validation: res.Validation,
	}
}

// RunFromCSV is RunFromCSV through the engine's artifact store.
func (e *Engine) RunFromCSV(r io.Reader, opts Options) (*Analysis, error) {
	db, err := recipedb.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return e.runOn(db, opts)
}

// RunFromJSONL is RunFromJSONL through the engine's artifact store.
func (e *Engine) RunFromJSONL(r io.Reader, opts Options) (*Analysis, error) {
	db, err := recipedb.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	return e.runOn(db, opts)
}

// runOn executes the graph on an externally supplied database. The
// corpus stage is keyed by a content hash of the recipes, so the same
// dataset supplied twice shares all downstream artifacts.
func (e *Engine) runOn(db *recipedb.DB, opts Options) (*Analysis, error) {
	if opts.MinSupport <= 0 {
		opts.MinSupport = core.DefaultMinSupport
	}
	if opts.Linkage == "" {
		opts.Linkage = core.DefaultLinkage.String()
	}
	method, err := hac.ParseMethod(opts.Linkage)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	res, err := e.pipe.RunOn(ctx, db, pipeline.Params{
		MinSupport: opts.MinSupport,
		Method:     method,
		Workers:    opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return newAnalysis(ctx, res), nil
}

// StageCacheStats counts one pipeline stage's artifact cache traffic;
// artifact.Stats documents each counter.
type StageCacheStats = artifact.Stats

// CacheStats returns the engine's per-stage artifact cache counters,
// keyed by stage kind ("corpus", "mine", "matrices", "auth", "pdist",
// "geodist", "tree", "elbow", "validate").
func (e *Engine) CacheStats() map[string]StageCacheStats { return e.pipe.Store().Stats() }

// ArtifactStore exposes the engine's stage artifact store. The cluster
// layer (internal/cluster) attaches to it: installing a peer fetcher
// and serving its frames to peers. Library users never need it.
func (e *Engine) ArtifactStore() *artifact.Store { return e.pipe.Store() }

// Run executes the complete pipeline with a private single-run engine.
// Callers making repeated or overlapping runs should hold a shared
// Engine instead, which reuses per-stage artifacts across runs.
func Run(opts Options) (*Analysis, error) {
	return NewEngine(EngineConfig{}).Run(opts)
}

// RunFromCSV runs the pipeline on recipes read from CSV (the format
// written by `cmd/recipegen -format csv`). Options.Seed and Scale are
// ignored — the data is what the reader provides.
func RunFromCSV(r io.Reader, opts Options) (*Analysis, error) {
	return NewEngine(EngineConfig{}).RunFromCSV(r, opts)
}

// RunFromJSONL runs the pipeline on recipes read from JSON Lines (the
// format written by `cmd/recipegen -format jsonl`).
func RunFromJSONL(r io.Reader, opts Options) (*Analysis, error) {
	return NewEngine(EngineConfig{}).RunFromJSONL(r, opts)
}

// Regions returns the 26 cuisine names in canonical (sorted) order:
// the geographic tree's leaf labels, which the pipeline takes from the
// corpus's region list.
func (a *Analysis) Regions() []string { return a.figures.Geo.Tree.Labels }

// tree resolves a figure to its dendrogram.
func (a *Analysis) tree(f Figure) (*core.CuisineTree, error) {
	switch f {
	case FigureEuclidean:
		return a.figures.Euclidean, nil
	case FigureCosine:
		return a.figures.Cosine, nil
	case FigureJaccard:
		return a.figures.Jaccard, nil
	case FigureAuthenticity:
		return a.figures.Auth, nil
	case FigureGeographic:
		return a.figures.Geo, nil
	default:
		return nil, fmt.Errorf("cuisines: unknown figure %v", f)
	}
}

// Dendrogram renders the figure's dendrogram as ASCII art (labels, joints
// and a distance axis), the textual analogue of the paper's plots.
func (a *Analysis) Dendrogram(f Figure) (string, error) {
	t, err := a.tree(f)
	if err != nil {
		return "", err
	}
	header := fmt.Sprintf("%s (metric=%s, linkage=%s)\n", f, t.Metric, t.Linkage)
	return header + t.Tree.Render(), nil
}

// Newick serializes the figure's dendrogram in Newick format for external
// tree viewers.
func (a *Analysis) Newick(f Figure) (string, error) {
	t, err := a.tree(f)
	if err != nil {
		return "", err
	}
	return t.Tree.Newick(), nil
}

// cophenetic returns the figure's cophenetic matrix, computing it at
// most once per Analysis: building it walks the whole tree and
// allocates O(n²), far too much to repeat on every daemon request.
func (a *Analysis) cophenetic(f Figure) (*distance.Condensed, error) {
	t, err := a.tree(f)
	if err != nil {
		return nil, err
	}
	a.cophOnce[f].Do(func() { a.coph[f] = t.Tree.Cophenetic() })
	return a.coph[f], nil
}

// regionIndex resolves a region name to its index in canonical order —
// the leaf order every tree and matrix shares — via a map built once.
func (a *Analysis) regionIndex(region string) (int, error) {
	a.regionsOnce.Do(func() {
		regions := a.Regions()
		a.regionIdx = make(map[string]int, len(regions))
		for i, r := range regions {
			a.regionIdx[r] = i
		}
	})
	i, ok := a.regionIdx[region]
	if !ok {
		return 0, fmt.Errorf("cuisines: unknown region %q", region)
	}
	return i, nil
}

// HasRegion reports whether region is one of the corpus's cuisines. It
// resolves through the memoized region index (built once per Analysis),
// so the daemon's per-request region validation is a map lookup, not a
// scan of Regions().
func (a *Analysis) HasRegion(region string) bool {
	_, err := a.regionIndex(region)
	return err == nil
}

// CuisineDistance returns the cophenetic distance between two cuisines in
// the figure's dendrogram — the height at which they merge.
func (a *Analysis) CuisineDistance(f Figure, regionA, regionB string) (float64, error) {
	coph, err := a.cophenetic(f)
	if err != nil {
		return 0, err
	}
	ia, err := a.regionIndex(regionA)
	if err != nil {
		return 0, err
	}
	ib, err := a.regionIndex(regionB)
	if err != nil {
		return 0, err
	}
	if ia == ib {
		return 0, nil
	}
	return coph.At(ia, ib), nil
}

// ClosestCuisine returns the region merging earliest with the given one
// in the figure's dendrogram.
func (a *Analysis) ClosestCuisine(f Figure, region string) (string, error) {
	coph, err := a.cophenetic(f)
	if err != nil {
		return "", err
	}
	self, err := a.regionIndex(region)
	if err != nil {
		return "", err
	}
	j, _ := coph.ArgClosest(self)
	return a.Regions()[j], nil
}

// Clusters cuts the figure's dendrogram into k clusters and returns the
// regions grouped by cluster.
func (a *Analysis) Clusters(f Figure, k int) ([][]string, error) {
	t, err := a.tree(f)
	if err != nil {
		return nil, err
	}
	assign, err := t.Tree.CutK(k)
	if err != nil {
		return nil, err
	}
	max := 0
	for _, c := range assign {
		if c > max {
			max = c
		}
	}
	out := make([][]string, max+1)
	regions := a.Regions()
	for i, c := range assign {
		out[c] = append(out[c], regions[i])
	}
	return out, nil
}

// Stats exposes the Sec. III corpus statistics, computed on first call
// and memoized (the daemon serves it per request). The first call loads
// the corpus.
func (a *Analysis) Stats() recipedb.Stats {
	a.statsOnce.Do(func() { a.stats = recipedb.ComputeStats(a.recipes()) })
	return a.stats
}

// recipes resolves the corpus for the accessors that read it. The
// store recomputes a missing or corrupt corpus and the pipeline already
// built these parameters once, so a failure here is a bug.
func (a *Analysis) recipes() *recipedb.DB {
	db, err := a.corpus()
	if err != nil {
		panic(fmt.Sprintf("cuisines: resolve corpus: %v", err))
	}
	return db
}

// elbowCurve resolves the Fig. 1 curve on first use: no other output
// reads it, so an analysis nobody asks for Fig. 1 never computes,
// loads or fetches it. As with recipes, a failure here is a bug.
func (a *Analysis) elbowCurve() *kmeans.ElbowCurve {
	c, err := a.elbow()
	if err != nil {
		panic(fmt.Sprintf("cuisines: resolve elbow: %v", err))
	}
	return c
}

// ElbowReport renders the Fig. 1 elbow analysis. The first call to it
// or ElbowSharp runs (or loads) the k-means sweep.
func (a *Analysis) ElbowReport() string {
	var b strings.Builder
	_ = a.elbowCurve().Render(&b)
	return b.String()
}

// ElbowSharp reports whether the WCSS curve had a pronounced elbow (the
// paper's Fig. 1 finds none).
func (a *Analysis) ElbowSharp() bool { return a.elbowCurve().Sharp() }
