// Package pipeline runs the paper's evaluation as an explicit stage
// graph with per-stage, content-addressed artifact caching (DESIGN.md
// §8). It is the one place the figure chain is wired; each edge of the
// dataflow is named —
//
//	corpus(seed, scale)
//	  └─ mine(corpus, minSupport)
//	       └─ matrices(mine)                → Table I + pattern features
//	            ├─ elbow(matrices)          → Fig. 1
//	            └─ pdist(matrices, metric)  → Figs. 2-4 distances
//	                 └─ tree(pdist, linkage)
//	  └─ auth(corpus)                       → Fig. 5 features
//	       └─ pdist(auth) └─ tree(...)
//	  └─ geodist(corpus)                    → Fig. 6 distances
//	       └─ tree(...)
//	all five trees └─ validate(trees)       → Sec. VII
//
// — and resolves every stage through an artifact.Store. Stage keys are
// stable hashes of the stage's parameters plus its inputs' keys, so
// two analyses that share a prefix of the graph (same corpus and
// mining run, different linkage or figure) share the cached upstream
// artifacts, and a disk-backed store survives restarts.
//
// Invariant carried over from the parallel layer (DESIGN.md §3):
// outputs are byte-identical for any worker count and any cache state
// — cold, warm-memory, warm-disk or fetched from a peer — which the
// root package's identity matrix pins to one golden. Stages are pure
// functions of their inputs, serialization round-trips exactly, and
// worker counts never enter a key.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"cuisines/internal/artifact"
	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/geo"
	"cuisines/internal/hac"
	"cuisines/internal/kmeans"
	"cuisines/internal/parallel"
	"cuisines/internal/recipedb"
)

// Params are the analysis parameters after canonicalization. Workers
// never enters an artifact key: parallelism changes how fast the answer
// arrives, never the answer, so switching it against a warm store
// recomputes nothing.
type Params struct {
	Seed       uint64
	Scale      float64
	MinSupport float64
	Method     hac.Method
	Workers    int
}

// Result is one full run of the paper's evaluation in pipeline form.
// DB resolves the run's corpus on demand: a run whose every downstream
// artifact was already stored never loads it (DESIGN.md §8).
type Result struct {
	DB         Corpus
	Figures    *core.Figures
	Validation *core.Validation
}

// Corpus resolves a run's recipe database. Run's resolves the corpus
// stage through the store, so a miss there recomputes it; RunOn's
// returns the database the caller supplied.
type Corpus func(context.Context) (*recipedb.DB, error)

// Pipeline executes the stage graph against one artifact store.
// Pipelines sharing a store share every cached stage.
type Pipeline struct {
	store *artifact.Store
}

// New builds a Pipeline over the store; nil means a fresh private
// memory-only store.
func New(store *artifact.Store) *Pipeline {
	if store == nil {
		store = artifact.NewStore(artifact.Options{})
	}
	return &Pipeline{store: store}
}

// Store returns the pipeline's artifact store (for stats inspection).
func (p *Pipeline) Store() *artifact.Store { return p.store }

// Run executes the full graph from a generated corpus. Cancellation of
// ctx is honored between stages: a stage already executing runs to
// completion (and is cached — the work is not wasted), but no further
// stage starts once ctx is done, and Run returns ctx's error.
func (p *Pipeline) Run(ctx context.Context, pr Params) (*Result, error) {
	pr = withDefaults(pr)
	corpusKey, db := p.corpus(pr)
	return p.runFrom(ctx, corpusKey, db, pr)
}

// corpus returns the generated corpus stage's key for defaulted
// params, the root of every downstream key, and its resolver.
func (p *Pipeline) corpus(pr Params) (string, Corpus) {
	key := artifact.Key("corpus",
		fmt.Sprintf("seed=%d", pr.Seed),
		fmt.Sprintf("scale=%g", pr.Scale))
	return key, func(ctx context.Context) (*recipedb.DB, error) {
		return stage(ctx, p.store, key, corpusCodec, func() (*recipedb.DB, error) {
			return corpus.Generate(corpus.Config{Seed: pr.Seed, Scale: pr.Scale, Workers: pr.Workers})
		})
	}
}

// RunOn executes the graph on an externally supplied database (the
// CSV/JSONL ingestion path). The corpus key is a content hash of the
// recipes, so identical datasets share downstream artifacts no matter
// how they arrived. The database itself is not stored: only its holder
// can produce that key. Cancellation behaves as in Run.
func (p *Pipeline) RunOn(ctx context.Context, db *recipedb.DB, pr Params) (*Result, error) {
	pr = withDefaults(pr)
	return p.runFrom(ctx, artifact.Key("dataset", ContentKey(db)), func(context.Context) (*recipedb.DB, error) {
		return db, nil
	}, pr)
}

func withDefaults(pr Params) Params {
	if pr.Seed == 0 {
		pr.Seed = corpus.DefaultSeed
	}
	if pr.Scale <= 0 {
		pr.Scale = 1
	}
	if pr.MinSupport <= 0 {
		pr.MinSupport = core.DefaultMinSupport
	}
	return pr
}

// runFrom executes every stage downstream of the corpus. Mining fans
// out per cuisine over the full budget; then the six independent figure
// chains run concurrently with the budget split between the outer
// fan-out and each chain's inner pdist / k-sweep (core.SplitWorkers),
// so total concurrency stays bounded by Workers rather than
// multiplying. Each chain lands in its own slot, so the result is the
// same for any worker count.
//
// Only the mine and auth computes read recipes, so db is called from
// those two alone: a run whose mine and auth artifacts are stored never
// loads the corpus. The geographic stages take the region names from
// the pattern matrix, whose rows are db.Regions() in order.
func (p *Pipeline) runFrom(ctx context.Context, corpusKey string, db Corpus, pr Params) (*Result, error) {
	// A started compute runs to completion (see stage), so the corpus
	// it reads is resolved regardless of ctx: a shared flight must not
	// fail for a joiner because its starter gave up. It is resolved at
	// most once per run: a second store lookup would refresh the
	// corpus's LRU position and keep one more whole corpus live.
	load := sync.OnceValues(func() (*recipedb.DB, error) { return db(context.WithoutCancel(ctx)) })
	mineKey := artifact.Key("mine", corpusKey, fmt.Sprintf("support=%g", pr.MinSupport))
	mined, err := stage(ctx, p.store, mineKey, mineCodec, func() ([]core.RegionPatterns, error) {
		db, err := load()
		if err != nil {
			return nil, err
		}
		return core.MineRegionsWorkers(db, pr.MinSupport, pr.Workers)
	})
	if err != nil {
		return nil, err
	}

	matKey := artifact.Key("matrices", mineKey)
	feats, err := stage(ctx, p.store, matKey, matricesCodec, func() (*PatternFeatures, error) {
		t1, pm, err := core.BuildPatternFeatures(mined, pr.MinSupport)
		if err != nil {
			return nil, err
		}
		return &PatternFeatures{Table1: t1, Matrix: pm}, nil
	})
	if err != nil {
		return nil, err
	}
	if feats.Matrix.X.Rows() < 2 {
		return nil, fmt.Errorf("pipeline: need at least two cuisines, have %d", feats.Matrix.X.Rows())
	}

	// Stage keys for the six figure chains, all derivable upfront.
	authKey := artifact.Key("auth", corpusKey, fmt.Sprintf("minprev=%g", core.AuthMinRegionPrevalence))
	authPdistKey := artifact.Key("pdist", authKey, distance.Euclidean.String())
	geodistKey := artifact.Key("geodist", corpusKey)
	elbowKey := artifact.Key("elbow", matKey, fmt.Sprintf("kmax=%d", core.ElbowKMax), fmt.Sprintf("seed=%d", core.ElbowSeed))
	patternPdistKey := func(m distance.Metric) string {
		return artifact.Key("pdist", matKey, m.String())
	}
	treeKey := func(pdistKey string, method hac.Method, name string) string {
		return artifact.Key("tree", pdistKey, method.String(), name)
	}
	keyEuc := treeKey(patternPdistKey(distance.Euclidean), core.EuclideanLinkage, "patterns-euclidean")
	keyCos := treeKey(patternPdistKey(distance.Cosine), pr.Method, "patterns-cosine")
	keyJac := treeKey(patternPdistKey(distance.Jaccard), pr.Method, "patterns-jaccard")
	keyAuth := treeKey(authPdistKey, pr.Method, "authenticity-euclidean")
	keyGeo := treeKey(geodistKey, pr.Method, "geographic")

	outer, inner := core.SplitWorkers(pr.Workers)
	figs := &core.Figures{Table1: feats.Table1, Patterns: feats.Matrix, Mined: mined}
	patternTree := func(metric distance.Metric, method hac.Method, key string) (*core.CuisineTree, error) {
		d, err := stage(ctx, p.store, patternPdistKey(metric), pdistCodec, func() (*distance.Condensed, error) {
			return distance.PdistWorkers(feats.Matrix.X, metric, inner), nil
		})
		if err != nil {
			return nil, err
		}
		return stage(ctx, p.store, key, treeCodec, func() (*core.CuisineTree, error) {
			return core.LinkTree("patterns-"+metric.String(), d, feats.Matrix.Regions, metric, method)
		})
	}
	err = parallel.Do(outer,
		func() (err error) {
			figs.Elbow, err = stage(ctx, p.store, elbowKey, elbowCodec, func() (*kmeans.ElbowCurve, error) {
				return kmeans.Elbow(feats.Matrix.X, core.ElbowKMax, kmeans.Options{Seed: core.ElbowSeed, Workers: inner})
			})
			return err
		},
		func() (err error) {
			figs.Euclidean, err = patternTree(distance.Euclidean, core.EuclideanLinkage, keyEuc)
			return err
		},
		func() (err error) {
			figs.Cosine, err = patternTree(distance.Cosine, pr.Method, keyCos)
			return err
		},
		func() (err error) {
			figs.Jaccard, err = patternTree(distance.Jaccard, pr.Method, keyJac)
			return err
		},
		func() (err error) {
			am, err := stage(ctx, p.store, authKey, authCodec, func() (*authenticity.Matrix, error) {
				db, err := load()
				if err != nil {
					return nil, err
				}
				return authenticity.Build(db, authenticity.Options{MinRegionPrevalence: core.AuthMinRegionPrevalence})
			})
			if err != nil {
				return err
			}
			figs.AuthMat = am
			d, err := stage(ctx, p.store, authPdistKey, pdistCodec, func() (*distance.Condensed, error) {
				return distance.PdistWorkers(am.FeatureMatrix(), distance.Euclidean, inner), nil
			})
			if err != nil {
				return err
			}
			figs.Auth, err = stage(ctx, p.store, keyAuth, treeCodec, func() (*core.CuisineTree, error) {
				return core.LinkTree("authenticity-euclidean", d, am.Regions, distance.Euclidean, pr.Method)
			})
			return err
		},
		func() (err error) {
			d, err := stage(ctx, p.store, geodistKey, geodistCodec, func() (*distance.Condensed, error) {
				return geo.DistanceMatrix(feats.Matrix.Regions)
			})
			if err != nil {
				return err
			}
			figs.Geo, err = stage(ctx, p.store, keyGeo, treeCodec, func() (*core.CuisineTree, error) {
				// Metric is a label only; the distances are haversine km.
				return core.LinkTree("geographic", d, feats.Matrix.Regions, distance.Euclidean, pr.Method)
			})
			return err
		},
	)
	if err != nil {
		return nil, err
	}

	valKey := artifact.Key("validate", keyEuc, keyCos, keyJac, keyAuth, keyGeo)
	v, err := stage(ctx, p.store, valKey, validateCodec, func() (*core.Validation, error) {
		return core.Validate(figs)
	})
	if err != nil {
		return nil, err
	}
	return &Result{DB: db, Figures: figs, Validation: v}, nil
}

// ContentKey hashes a database's full content — recipes in stored
// order, every field length-prefixed — so externally supplied datasets
// get content-addressed corpus keys: the same CSV uploaded twice (or
// the same data arriving as CSV and JSONL) shares one graph prefix.
func ContentKey(db *recipedb.DB) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	writeList := func(ss []string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(ss)))
		h.Write(n[:])
		for _, s := range ss {
			writeStr(s)
		}
	}
	for i := 0; i < db.Len(); i++ {
		r := db.Recipe(i)
		writeStr(r.ID)
		writeStr(r.Name)
		writeStr(r.Region)
		writeList(r.Ingredients)
		writeList(r.Processes)
		writeList(r.Utensils)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
