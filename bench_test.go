package cuisines

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md §4 for the experiment index) and adds the A2-A3
// ablations. Domain results are attached as custom benchmark metrics so
// `go test -bench . -benchmem` doubles as the experiment runner:
//
//	E1 BenchmarkTable1PatternMining    Table I
//	E2 BenchmarkFig1ElbowKMeans        Fig. 1
//	E3 BenchmarkFig2EuclideanTree      Fig. 2
//	E4 BenchmarkFig3CosineTree         Fig. 3
//	E5 BenchmarkFig4JaccardTree        Fig. 4
//	E6 BenchmarkFig5AuthenticityTree   Fig. 5
//	E7 BenchmarkFig6GeographicTree     Fig. 6
//	E8 BenchmarkSec7TreeValidation     Sec. VII
//	E9 BenchmarkCorpusGeneration       Sec. III corpus
//	E9b BenchmarkColdCorpusMine        fresh-seed corpus + Sec. V.A mining
//	A2 BenchmarkLinkageAblation        linkage methods vs geography fit
//	A3 BenchmarkFeatureAblation        binary vs support vs TF-IDF
//	P1-P4 ...Parallel                  worker-count sweeps (DESIGN.md §3)
//	P5 BenchmarkStagedReuse            cold vs staged-warm vs disk load (§8)
//
// Benches run at a tenth of the full corpus so an iteration stays in the
// tens-of-milliseconds range; EXPERIMENTS.md holds cmd/report's
// full-scale output.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/encode"
	"cuisines/internal/geo"
	"cuisines/internal/hac"
	"cuisines/internal/kmeans"
	"cuisines/internal/matrix"
	"cuisines/internal/pipeline"
	"cuisines/internal/recipedb"
	"cuisines/internal/rng"
	"cuisines/internal/treecmp"
)

const benchScale = 0.1

type benchFixture struct {
	db      *recipedb.DB
	mined   []core.RegionPatterns
	regions []string
	pm      *encode.PatternMatrix
	geo     *core.CuisineTree
}

var (
	fixOnce sync.Once
	fix     *benchFixture
	fixErr  error
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: benchScale})
		if err != nil {
			fixErr = err
			return
		}
		mined, err := core.MineRegionsWorkers(db, core.DefaultMinSupport, 0)
		if err != nil {
			fixErr = err
			return
		}
		regions, sets := core.PatternSets(mined)
		pm, err := encode.BuildPatternMatrix(regions, core.AnchoredPatterns(sets), encode.Binary)
		if err != nil {
			fixErr = err
			return
		}
		geoTree, err := linkGeo(regions)
		if err != nil {
			fixErr = err
			return
		}
		fix = &benchFixture{db: db, mined: mined, regions: regions, pm: pm, geo: geoTree}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// linkPatterns links the Figs. 2-4 tree of a pattern feature matrix.
func linkPatterns(pm *encode.PatternMatrix, metric distance.Metric, method hac.Method) (*core.CuisineTree, error) {
	d := distance.PdistWorkers(pm.X, metric, 0)
	return core.LinkTree("patterns-"+metric.String(), d, pm.Regions, metric, method)
}

// linkGeo links the Fig. 6 tree of the regions' great-circle distances.
func linkGeo(regions []string) (*core.CuisineTree, error) {
	d, err := geo.DistanceMatrix(regions)
	if err != nil {
		return nil, err
	}
	return core.LinkTree("geographic", d, regions, distance.Euclidean, core.DefaultLinkage)
}

// E9 — Sec. III corpus generation.
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	var recipes int
	for i := 0; i < b.N; i++ {
		db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		recipes = db.Len()
	}
	b.ReportMetric(float64(recipes), "recipes")
}

// E9b — the cold path of a fresh analysis: a new corpus seed per
// iteration, generated and mined per cuisine (Sec. III then Sec. V.A),
// at scale 0.08 with two workers.
func BenchmarkColdCorpusMine(b *testing.B) {
	b.ReportAllocs()
	var patterns int
	for i := 0; i < b.N; i++ {
		db, err := corpus.Generate(corpus.Config{Seed: uint64(1000 + i), Scale: 0.08, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		mined, err := core.MineRegionsWorkers(db, core.DefaultMinSupport, 2)
		if err != nil {
			b.Fatal(err)
		}
		patterns = 0
		for _, rp := range mined {
			patterns += len(rp.Patterns)
		}
	}
	b.ReportMetric(float64(patterns), "patterns")
}

// E1 — Table I: per-cuisine Eclat, significance ranking and the pattern
// feature matrix (the pipeline's mine and matrices stages).
func BenchmarkTable1PatternMining(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		mined, err := core.MineRegionsWorkers(f.db, core.DefaultMinSupport, 0)
		if err != nil {
			b.Fatal(err)
		}
		t1, _, err := core.BuildPatternFeatures(mined, core.DefaultMinSupport)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t1.Rows)
	}
	b.ReportMetric(float64(rows), "cuisines")
}

// E2 — Fig. 1: K-means elbow curve on the pattern features.
func BenchmarkFig1ElbowKMeans(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var strength float64
	for i := 0; i < b.N; i++ {
		curve, err := kmeans.Elbow(f.pm.X, core.ElbowKMax, kmeans.Options{Seed: core.ElbowSeed})
		if err != nil {
			b.Fatal(err)
		}
		strength = curve.ElbowStrength
	}
	b.ReportMetric(strength, "elbow-strength")
}

func benchPatternTree(b *testing.B, metric distance.Metric, method hac.Method) {
	f := getFixture(b)
	b.ResetTimer()
	var gamma float64
	for i := 0; i < b.N; i++ {
		tree, err := linkPatterns(f.pm, metric, method)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := treecmp.Compare(tree.Tree, f.geo.Tree, nil)
		if err != nil {
			b.Fatal(err)
		}
		gamma = rep.BakersGamma
	}
	b.ReportMetric(gamma, "geo-gamma")
}

// E3 — Fig. 2: Euclidean pattern tree (Ward linkage).
func BenchmarkFig2EuclideanTree(b *testing.B) {
	benchPatternTree(b, distance.Euclidean, core.EuclideanLinkage)
}

// E4 — Fig. 3: cosine pattern tree.
func BenchmarkFig3CosineTree(b *testing.B) {
	benchPatternTree(b, distance.Cosine, core.DefaultLinkage)
}

// E5 — Fig. 4: Jaccard pattern tree.
func BenchmarkFig4JaccardTree(b *testing.B) {
	benchPatternTree(b, distance.Jaccard, core.DefaultLinkage)
}

// E6 — Fig. 5: authenticity tree (includes building the prevalence
// matrix from the full database).
func BenchmarkFig5AuthenticityTree(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var gamma float64
	for i := 0; i < b.N; i++ {
		am, err := authenticity.Build(f.db, authenticity.Options{MinRegionPrevalence: core.AuthMinRegionPrevalence})
		if err != nil {
			b.Fatal(err)
		}
		d := distance.PdistWorkers(am.FeatureMatrix(), distance.Euclidean, 0)
		tree, err := core.LinkTree("authenticity-euclidean", d, am.Regions, distance.Euclidean, core.DefaultLinkage)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := treecmp.Compare(tree.Tree, f.geo.Tree, nil)
		if err != nil {
			b.Fatal(err)
		}
		gamma = rep.BakersGamma
	}
	b.ReportMetric(gamma, "geo-gamma")
}

// E7 — Fig. 6: geographic tree.
func BenchmarkFig6GeographicTree(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linkGeo(f.regions); err != nil {
			b.Fatal(err)
		}
	}
}

// runFigures is one cold staged run over the fixture corpus: a fresh
// memory-only pipeline, so every stage computes.
func runFigures(db *recipedb.DB, workers int) (*pipeline.Result, error) {
	return pipeline.New(nil).RunOn(context.Background(), db, pipeline.Params{Method: core.DefaultLinkage, Workers: workers})
}

// E8 — Sec. VII: the full figure build plus claim validation.
func BenchmarkSec7TreeValidation(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var holds int
	for i := 0; i < b.N; i++ {
		res, err := runFigures(f.db, 0)
		if err != nil {
			b.Fatal(err)
		}
		holds = 0
		for _, c := range res.Validation.Claims {
			if c.Holds {
				holds++
			}
		}
	}
	b.ReportMetric(float64(holds), "claims-holding")
}

// benchWorkerCounts is the worker sweep for the parallel-layer benches:
// the sequential baseline, the ISSUE's 4-worker target, and every core.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	return counts
}

// P1 — parallel pdist: condensed distances over a corpus-shaped dense
// matrix (hundreds of observations, thousands of features) per worker
// count. The workers=1 case is the sequential baseline the speedup
// criterion is measured against.
func BenchmarkPdistParallel(b *testing.B) {
	r := rng.New(42)
	m := matrix.NewDense(256, 2048)
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = r.Float64()
		}
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				d := distance.PdistWorkers(m, distance.Euclidean, w)
				sink = d.Values()[0]
			}
			b.ReportMetric(sink, "d0")
		})
	}
}

// P2 — parallel per-cuisine mining: the 26 Eclat runs behind Table I
// per worker count, on the shared bench-scale corpus.
func BenchmarkMineRegionsParallel(b *testing.B) {
	f := getFixture(b)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var patterns int
			for i := 0; i < b.N; i++ {
				mined, err := core.MineRegionsWorkers(f.db, core.DefaultMinSupport, w)
				if err != nil {
					b.Fatal(err)
				}
				patterns = 0
				for _, rp := range mined {
					patterns += len(rp.Patterns)
				}
			}
			b.ReportMetric(float64(patterns), "patterns")
		})
	}
}

// P3 — parallel corpus generation: the per-region fan-out of Sec. III
// generation per worker count.
func BenchmarkCorpusGenerationParallel(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var recipes int
			for i := 0; i < b.N; i++ {
				db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: benchScale, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				recipes = db.Len()
			}
			b.ReportMetric(float64(recipes), "recipes")
		})
	}
}

// P4 — the whole figure pipeline per worker count (the end-to-end number
// the facade's Options.Workers controls): a cold staged run over the
// fixture corpus, its content hash and a fresh memory store included.
func BenchmarkBuildFiguresParallel(b *testing.B) {
	f := getFixture(b)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runFigures(f.db, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// P5 — staged artifact reuse (DESIGN.md §8): the cost of an analysis
// against an engine that already holds a sibling analysis's stage
// artifacts, at the paper's full scale. "cold" is the whole graph from
// nothing; "warm-linkage-only" changes only the linkage against a warm
// store (corpus, mining, matrices and pdist all reused — the staged
// refactor's headline win; the acceptance bar is >= 5x over cold);
// "warm-support-only" re-mines but reuses the corpus and the
// corpus-keyed features; "disk-load" rebuilds every stage from the
// persistent tier, the restarted-daemon path. The ratio sub-benchmark
// reports cold/warm directly as a metric.
func BenchmarkStagedReuse(b *testing.B) {
	base := Options{Scale: 1, Linkage: "average"}
	changed := map[string]Options{
		"warm-linkage-only": {Scale: 1, Linkage: "ward"},
		"warm-support-only": {Scale: 1, Linkage: "average", MinSupport: 0.25},
	}
	run := func(b *testing.B, e *Engine, opts Options) {
		b.Helper()
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, NewEngine(EngineConfig{}), base)
		}
	})
	for name, opts := range changed {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEngine(EngineConfig{})
				run(b, e, base)
				b.StartTimer()
				run(b, e, opts)
			}
		})
	}
	b.Run("disk-load", func(b *testing.B) {
		dir := b.TempDir()
		run(b, NewEngine(EngineConfig{CacheDir: dir}), base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh engine per iteration is a simulated restart: every
			// stage loads from the persistent tier.
			run(b, NewEngine(EngineConfig{CacheDir: dir}), base)
		}
	})
	b.Run("cold-vs-warm-ratio", func(b *testing.B) {
		var cold, warm time.Duration
		for i := 0; i < b.N; i++ {
			e := NewEngine(EngineConfig{})
			t0 := time.Now()
			run(b, e, base)
			cold += time.Since(t0)
			t1 := time.Now()
			run(b, e, changed["warm-linkage-only"])
			warm += time.Since(t1)
		}
		if warm > 0 {
			b.ReportMetric(float64(cold)/float64(warm), "cold/warm")
		}
	})
}

// A2 — linkage ablation: geography fit per linkage method on the
// Euclidean pattern distances.
func BenchmarkLinkageAblation(b *testing.B) {
	f := getFixture(b)
	d := distance.Pdist(f.pm.X, distance.Euclidean)
	for _, method := range []hac.Method{hac.Single, hac.Complete, hac.Average, hac.Weighted, hac.Ward} {
		b.Run(method.String(), func(b *testing.B) {
			var gamma float64
			for i := 0; i < b.N; i++ {
				lk, err := hac.Cluster(d, method)
				if err != nil {
					b.Fatal(err)
				}
				tree, err := hac.BuildTree(lk, f.regions)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := treecmp.Compare(tree, f.geo.Tree, nil)
				if err != nil {
					b.Fatal(err)
				}
				gamma = rep.BakersGamma
			}
			b.ReportMetric(gamma, "geo-gamma")
		})
	}
}

// A3 — feature-weighting ablation: binary (paper) vs support-weighted vs
// TF-IDF pattern features under the cosine tree.
func BenchmarkFeatureAblation(b *testing.B) {
	f := getFixture(b)
	_, sets := core.PatternSets(f.mined)
	anchored := core.AnchoredPatterns(sets)
	for _, w := range []encode.Weighting{encode.Binary, encode.SupportWeighted, encode.TFIDF} {
		b.Run(w.String(), func(b *testing.B) {
			var gamma float64
			for i := 0; i < b.N; i++ {
				pm, err := encode.BuildPatternMatrix(f.regions, anchored, w)
				if err != nil {
					b.Fatal(err)
				}
				tree, err := linkPatterns(pm, distance.Cosine, core.DefaultLinkage)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := treecmp.Compare(tree.Tree, f.geo.Tree, nil)
				if err != nil {
					b.Fatal(err)
				}
				gamma = rep.BakersGamma
			}
			b.ReportMetric(gamma, "geo-gamma")
		})
	}
}
