package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cuisines"
	"cuisines/internal/artifact"
	"cuisines/internal/authenticity"
	"cuisines/internal/cluster"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/geo"
	"cuisines/internal/hac"
	"cuisines/internal/kmeans"
	"cuisines/internal/miner"
	"cuisines/internal/pipeline"
	"cuisines/internal/recipedb"
	"cuisines/internal/server"
)

// stageKinds are the pipeline's stage kinds, in graph order.
var stageKinds = []string{"corpus", "mine", "matrices", "elbow", "pdist", "tree", "auth", "geodist", "validate"}

// families are the API query families the facade replay builds.
var families = []string{"table", "stats", "fingerprint", "patterns", "rules", "closest", "newick", "dendrogram", "clusters", "claims", "map"}

// replayPlan is what a workload's traced replay recomputes in process.
type replayPlan struct {
	opts       cuisines.Options   // the analysis the window served
	cacheSeq   []cuisines.Options // analysis lookups the window made, in order
	freshCache bool               // every lookup meets an empty analysis cache (a restarted daemon)
	refQuery   string             // query selecting opts on the daemon
	refHop     bool               // the reference daemon is a cluster member: pin local serving
	peerBase   string             // node serving artifact frames; "" = serve the replay's own store
	peerDir    string             // that node's cache directory, which lists the artifact keys
}

// reference is what the daemon served for the replayed analysis; the
// replay must reproduce it byte for byte.
type reference struct {
	newick  map[cuisines.Figure]string
	allHold bool
	table   []byte
}

func (e *env) fetchReference(ctx context.Context, base string) (reference, error) {
	ref := reference{newick: map[cuisines.Figure]string{}}
	q, hop := e.plan.refQuery, e.plan.refHop
	for _, f := range cuisines.AllFigures() {
		body, err := e.get(ctx, base, request{family: "newick", path: "/v1/newick/" + f.String() + q, hop: hop})
		if err != nil {
			return ref, err
		}
		ref.newick[f] = string(body)
	}
	body, err := e.get(ctx, base, request{family: "claims", path: "/v1/claims" + q, hop: hop})
	if err != nil {
		return ref, err
	}
	var claims cuisines.ClaimsResponse
	if err := json.Unmarshal(body, &claims); err != nil {
		return ref, fmt.Errorf("/v1/claims: %w", err)
	}
	ref.allHold = claims.AllHold
	ref.table, err = e.get(ctx, base, request{family: "table", path: "/v1/table" + q, hop: hop})
	return ref, err
}

// replay recomputes the plan's analysis in process, timing each layer
// through its exported functions: the stage kernels in graph order, the
// frame codecs, the artifact store's disk tier, the engine, the
// analysis cache, the facade queries and the peer wire. It returns the
// per-layer metrics and every way its outputs differ from ref.
func (b *bench) replay(ctx context.Context, plan replayPlan, ref reference) (map[string]float64, []string, error) {
	m := map[string]float64{}
	root := b.tr.id()
	start := time.Now()
	defer func() { b.tr.record(root, 0, "replay", start, time.Now(), 0, 0) }()
	canon, err := plan.opts.Canonical()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(b.tmp, "replay-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	var diffs []string
	mismatch := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }

	newicks, allHold, err := b.replayKernels(ctx, root, canon, dir, m)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range cuisines.AllFigures() {
		if newicks[f] != ref.newick[f] {
			mismatch("stage replay: %s Newick differs from the daemon's", f)
		}
	}
	if allHold != ref.allHold {
		mismatch("stage replay: AllClaimsHold %v, daemon %v", allHold, ref.allHold)
	}

	eng := cuisines.NewEngine(cuisines.EngineConfig{})
	var a *cuisines.Analysis
	d, err := b.tr.timed(root, "pipeline.run_cold", func(int64) (err error) {
		a, err = eng.RunContext(ctx, canon)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	m["pipeline.run_cold_ms"] = ms(d)
	d, err = b.tr.timed(root, "pipeline.run_warm", func(int64) error {
		_, err := eng.RunContext(ctx, canon)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	m["pipeline.run_warm_ms"] = ms(d)
	for _, f := range cuisines.AllFigures() {
		if nw, _ := a.Newick(f); nw != ref.newick[f] {
			mismatch("engine: %s Newick differs from the daemon's", f)
		}
	}
	if a.AllClaimsHold() != ref.allHold {
		mismatch("engine: AllClaimsHold %v, daemon %v", a.AllClaimsHold(), ref.allHold)
	}
	if table, err := json.Marshal(cuisines.TableResponse{Rows: a.Table()}); err != nil || string(append(table, '\n')) != string(ref.table) {
		mismatch("engine: Table I JSON differs from the daemon's /v1/table")
	}

	if err := b.replayFacade(ctx, root, eng, canon, m); err != nil {
		return nil, nil, err
	}
	if err := b.replayCache(ctx, root, eng, plan, m); err != nil {
		return nil, nil, err
	}
	peerBase, peerDir := plan.peerBase, plan.peerDir
	if peerBase == "" {
		// No cluster in this workload: serve the replay's own store
		// through the daemon's peer route, in process.
		addr, err := freeAddr()
		if err != nil {
			return nil, nil, err
		}
		peer, err := inProcessLauncher{hc: b.hc}.launch(ctx, daemonConfig{addr: addr, scale: canon.Scale, cacheDir: dir, peers: []string{"http://" + addr}})
		if err != nil {
			return nil, nil, err
		}
		defer peer.stop()
		peerBase, peerDir = peer.base, dir
	}
	if err := b.replayPeerFetch(ctx, root, peerBase, peerDir, m); err != nil {
		return nil, nil, err
	}
	return m, diffs, nil
}

// stageValue is one stage artifact the kernel replay produced.
type stageValue struct {
	kind string
	v    any
}

// replayKernels runs the stage graph kernel by kernel, as
// pipeline.Pipeline.runFrom orders them, then times every artifact
// through the frame codecs and through a disk-tier store written in dir
// and read back by a second store. It returns the five Newick trees and
// the Sec. VII verdict for comparison with the daemon.
func (b *bench) replayKernels(ctx context.Context, root int64, canon cuisines.Options, dir string, m map[string]float64) (map[cuisines.Figure]string, bool, error) {
	method, err := hac.ParseMethod(canon.Linkage)
	if err != nil {
		return nil, false, err
	}
	mn, err := miner.Parse(canon.Miner)
	if err != nil {
		return nil, false, err
	}
	var vals []stageValue
	compute := func(kind string, fn func() (any, error)) error {
		var v any
		d, err := b.tr.timed(root, "stage."+kind+".compute", func(int64) (err error) {
			v, err = fn()
			return err
		})
		m["stage."+kind+".compute_ms"] += ms(d)
		if err == nil {
			vals = append(vals, stageValue{kind, v})
		}
		return err
	}
	var (
		db      *recipedb.DB
		mined   []core.RegionPatterns
		feats   *pipeline.PatternFeatures
		elbow   *kmeans.ElbowCurve
		am      *authenticity.Matrix
		geoDist *distance.Condensed
		pdists  = map[string]*distance.Condensed{}
		trees   = map[cuisines.Figure]*core.CuisineTree{}
	)
	pdist := func(name string, x func() *distance.Condensed) error {
		return compute("pdist", func() (any, error) {
			pdists[name] = x()
			return pdists[name], nil
		})
	}
	tree := func(f cuisines.Figure, name string, d *distance.Condensed, labels []string, metric distance.Metric, method hac.Method) error {
		return compute("tree", func() (any, error) {
			lk, err := hac.Cluster(d, method)
			if err != nil {
				return nil, err
			}
			t, err := hac.BuildTree(lk, labels)
			if err != nil {
				return nil, err
			}
			trees[f] = &core.CuisineTree{Name: name, Tree: t, Distances: d, Metric: metric, Linkage: method}
			return trees[f], nil
		})
	}
	steps := []func() error{
		func() error {
			return compute("corpus", func() (v any, err error) {
				db, err = corpus.Generate(corpus.Config{Seed: canon.Seed, Scale: canon.Scale})
				return db, err
			})
		},
		func() error {
			return compute("mine", func() (v any, err error) {
				mined, err = core.MineRegionsWith(db, canon.MinSupport, 0, mn)
				return mined, err
			})
		},
		func() error {
			return compute("matrices", func() (any, error) {
				t1, pm, err := core.BuildPatternFeatures(mined, canon.MinSupport)
				feats = &pipeline.PatternFeatures{Table1: t1, Matrix: pm}
				return feats, err
			})
		},
		func() error {
			return compute("elbow", func() (v any, err error) {
				elbow, err = kmeans.Elbow(feats.Matrix.X, core.ElbowKMax, kmeans.Options{Seed: core.ElbowSeed})
				return elbow, err
			})
		},
		func() error {
			for _, metric := range []distance.Metric{distance.Euclidean, distance.Cosine, distance.Jaccard} {
				if err := pdist(metric.String(), func() *distance.Condensed { return distance.PdistWorkers(feats.Matrix.X, metric, 0) }); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			if err := tree(cuisines.FigureEuclidean, "patterns-euclidean", pdists["euclidean"], feats.Matrix.Regions, distance.Euclidean, core.EuclideanLinkage); err != nil {
				return err
			}
			if err := tree(cuisines.FigureCosine, "patterns-cosine", pdists["cosine"], feats.Matrix.Regions, distance.Cosine, method); err != nil {
				return err
			}
			return tree(cuisines.FigureJaccard, "patterns-jaccard", pdists["jaccard"], feats.Matrix.Regions, distance.Jaccard, method)
		},
		func() error {
			return compute("auth", func() (v any, err error) {
				am, err = authenticity.Build(db, authenticity.Options{MinRegionPrevalence: core.AuthMinRegionPrevalence})
				return am, err
			})
		},
		func() error {
			if err := pdist("auth", func() *distance.Condensed { return distance.PdistWorkers(am.FeatureMatrix(), distance.Euclidean, 0) }); err != nil {
				return err
			}
			return tree(cuisines.FigureAuthenticity, "authenticity-euclidean", pdists["auth"], am.Regions, distance.Euclidean, method)
		},
		func() error {
			return compute("geodist", func() (v any, err error) {
				geoDist, err = geo.DistanceMatrix(db.Regions())
				return geoDist, err
			})
		},
		func() error {
			return tree(cuisines.FigureGeographic, "geographic", geoDist, db.Regions(), distance.Euclidean, method)
		},
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if err := step(); err != nil {
			return nil, false, err
		}
	}
	var val *core.Validation
	err = compute("validate", func() (v any, err error) {
		val, err = core.Validate(&core.Figures{
			Table1: feats.Table1, Elbow: elbow, Patterns: feats.Matrix, AuthMat: am, Mined: mined,
			Euclidean: trees[cuisines.FigureEuclidean], Cosine: trees[cuisines.FigureCosine],
			Jaccard: trees[cuisines.FigureJaccard], Auth: trees[cuisines.FigureAuthenticity],
			Geo: trees[cuisines.FigureGeographic],
		})
		return val, err
	})
	if err != nil {
		return nil, false, err
	}
	newicks := map[cuisines.Figure]string{}
	for f, t := range trees {
		newicks[f] = t.Tree.Newick()
	}
	if err := b.replayCodecs(root, vals, m); err != nil {
		return nil, false, err
	}
	if err := b.replayStore(ctx, root, vals, dir, m); err != nil {
		return nil, false, err
	}
	return newicks, val.AllClaimsHold(), nil
}

// replayCodecs frames, verifies and decodes every artifact with the
// codecs the disk tier and the peer wire use.
func (b *bench) replayCodecs(root int64, vals []stageValue, m map[string]float64) error {
	codecs := pipeline.Codecs()
	for _, sv := range vals {
		c := codecs[sv.kind]
		var frame []byte
		d, err := b.tr.timed(root, "codec."+sv.kind+".encode", func(int64) (err error) {
			frame, err = artifact.EncodeFrame(c, sv.v)
			return err
		})
		if err != nil {
			return fmt.Errorf("encode %s: %w", sv.kind, err)
		}
		m["codec."+sv.kind+".encode_ms"] += ms(d)
		m["codec."+sv.kind+".frame_bytes"] += float64(len(frame))
		if _, err := b.tr.timed(root, "codec."+sv.kind+".verify", func(int64) error { return artifact.VerifyFrame(frame, c) }); err != nil {
			return fmt.Errorf("verify %s: %w", sv.kind, err)
		}
		d, err = b.tr.timed(root, "codec."+sv.kind+".decode", func(int64) error {
			_, err := artifact.DecodeFrame(frame, c)
			return err
		})
		if err != nil {
			return fmt.Errorf("decode %s: %w", sv.kind, err)
		}
		m["codec."+sv.kind+".decode_ms"] += ms(d)
	}
	return nil
}

// errMissedDisk fails a load that did not come from the disk tier.
var errMissedDisk = errors.New("replay: artifact load missed the disk tier")

// replayStore puts every artifact through a fresh disk-backed store
// (memory miss, disk miss, encode and write) and reads each back through
// a second fresh store over the same directory (read, verify, decode).
func (b *bench) replayStore(ctx context.Context, root int64, vals []stageValue, dir string, m map[string]float64) error {
	codecs := pipeline.Codecs()
	put := artifact.NewStore(artifact.Options{Dir: dir})
	load := artifact.NewStore(artifact.Options{Dir: dir})
	keys := make([]string, len(vals))
	for i, sv := range vals {
		keys[i] = artifact.Key(sv.kind, fmt.Sprint(i))
		d, err := b.tr.timed(root, "artifact.put."+sv.kind, func(int64) error {
			_, err := put.GetOrCompute(ctx, keys[i], codecs[sv.kind], func() (any, error) { return sv.v, nil })
			return err
		})
		if err != nil {
			return err
		}
		m["artifact.store_ms"] += ms(d)
	}
	for i, sv := range vals {
		d, err := b.tr.timed(root, "artifact.load."+sv.kind, func(int64) error {
			_, err := load.GetOrCompute(ctx, keys[i], codecs[sv.kind], func() (any, error) { return nil, errMissedDisk })
			return err
		})
		if err != nil {
			return fmt.Errorf("load %s: %w", sv.kind, err)
		}
		m["artifact.load_ms"] += ms(d)
	}
	files, err := artifactFiles(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		m["artifact.disk_bytes"] += float64(f.size)
	}
	return nil
}

// replayFacade times each query family's response build (the query on
// a fresh Analysis, JSON encoding and gzip) as the render cache's build
// step does it on a miss; the metric is the median over three inputs.
func (b *bench) replayFacade(ctx context.Context, root int64, eng *cuisines.Engine, canon cuisines.Options, m map[string]float64) error {
	rng := rand.New(rand.NewPCG(b.seed, 4))
	figs := cuisines.AllFigures()
	for _, fam := range families {
		var samples []float64
		for range 3 {
			// A memory-warm run assembles a new Analysis whose memoized
			// derivations start cold, as after an analysis-cache miss.
			a, err := eng.RunContext(ctx, canon)
			if err != nil {
				return err
			}
			regions := a.Regions()
			region, fig, k := regions[rng.IntN(len(regions))], figs[rng.IntN(len(figs))], 2+rng.IntN(7)
			d, err := b.tr.timed(root, "facade.build."+fam, func(id int64) error {
				return b.buildResponse(id, a, fam, region, fig, k)
			})
			if err != nil {
				return fmt.Errorf("facade %s: %w", fam, err)
			}
			samples = append(samples, ms(d))
		}
		m["facade.build_ms."+fam] = median(samples)
	}
	return nil
}

// buildResponse derives, encodes and compresses one response as the
// daemon's handlers do.
func (b *bench) buildResponse(parent int64, a *cuisines.Analysis, fam, region string, fig cuisines.Figure, k int) error {
	var v any
	if _, err := b.tr.timed(parent, "facade.query."+fam, func(int64) (err error) {
		v, err = facadeQuery(a, fam, region, fig, k)
		return err
	}); err != nil {
		return err
	}
	var body []byte
	if _, err := b.tr.timed(parent, "facade.marshal."+fam, func(int64) error {
		if raw, ok := v.([]byte); ok {
			body = raw
			return nil
		}
		enc, err := json.Marshal(v)
		body = append(enc, '\n')
		return err
	}); err != nil {
		return err
	}
	_, err := b.tr.timed(parent, "facade.gzip."+fam, func(int64) error {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := zw.Write(body); err != nil {
			return err
		}
		return zw.Close()
	})
	return err
}

// facadeQuery is the Analysis query behind each API family, returning
// the value its handler encodes (raw bytes for Newick).
func facadeQuery(a *cuisines.Analysis, fam, region string, fig cuisines.Figure, k int) (any, error) {
	switch fam {
	case "table":
		return cuisines.TableResponse{Rows: a.Table()}, nil
	case "stats":
		return cuisines.StatsResponse{Stats: a.Stats(), Miner: miner.Default.Name()}, nil
	case "fingerprint":
		return a.Fingerprint(region, 10)
	case "patterns":
		ps, err := a.CuisinePatterns(region)
		return cuisines.PatternsResponse{Region: region, Patterns: ps}, err
	case "rules":
		rules, err := a.AssociationRules(region, 0, 0)
		return cuisines.RulesResponse{Region: region, Rules: rules}, err
	case "closest":
		closest, err := a.ClosestCuisine(fig, region)
		if err != nil {
			return nil, err
		}
		d, err := a.CuisineDistance(fig, region, closest)
		return cuisines.ClosestResponse{Figure: fig.String(), Region: region, Closest: closest, Distance: d}, err
	case "newick":
		nw, err := a.Newick(fig)
		return []byte(nw), err
	case "dendrogram":
		d, err := a.Dendrogram(fig)
		return cuisines.DendrogramResponse{Figure: fig.String(), Dendrogram: d}, err
	case "clusters":
		groups, err := a.Clusters(fig, k)
		return cuisines.ClustersResponse{Figure: fig.String(), K: k, Clusters: groups}, err
	case "claims":
		return cuisines.ClaimsResponse{Claims: a.Claims(), Fits: a.GeographyFits(), AllHold: a.AllClaimsHold()}, nil
	case "map":
		points, variance, err := a.CuisineMap()
		return cuisines.MapResponse{Points: points, VarianceExplained: variance}, err
	}
	return nil, fmt.Errorf("unknown family %q", fam)
}

// replayCache replays the window's analysis lookups through
// server.Cache with the engine as its Runner; the metric is the mean
// lookup time.
func (b *bench) replayCache(ctx context.Context, root int64, eng *cuisines.Engine, plan replayPlan, m map[string]float64) error {
	var c *server.Cache
	total := time.Duration(0)
	for _, o := range plan.cacheSeq {
		if c == nil || plan.freshCache {
			c = server.NewCache(0, eng.RunContext, nil)
		}
		d, err := b.tr.timed(root, "server.cache_get", func(int64) error {
			_, err := c.Get(ctx, o)
			return err
		})
		if err != nil {
			return fmt.Errorf("cache get: %w", err)
		}
		total += d
	}
	m["server.cache_get_ms"] = ratio(ms(total), float64(len(plan.cacheSeq)))
	return nil
}

// artifactFile is one artifact frame file of a cache directory, named
// <kind>-v<version>-<key>.art.
type artifactFile struct {
	kind, key string
	size      int64
}

func artifactFiles(dir string) ([]artifactFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []artifactFile
	for _, ent := range entries {
		name, ok := strings.CutSuffix(ent.Name(), ".art")
		if !ok || ent.IsDir() {
			continue
		}
		kind, rest, ok1 := strings.Cut(name, "-v")
		_, key, ok2 := strings.Cut(rest, "-")
		if !ok1 || !ok2 {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, artifactFile{kind: kind, key: key, size: info.Size()})
	}
	return out, nil
}

// replayPeerFetch GETs every artifact of dir from base over the cluster
// wire route and verifies each frame, as a peer-warming node does.
func (b *bench) replayPeerFetch(ctx context.Context, root int64, base, dir string, m map[string]float64) error {
	files, err := artifactFiles(dir)
	if err != nil {
		return err
	}
	codecs := pipeline.Codecs()
	for _, f := range files {
		c, ok := codecs[f.kind]
		if !ok {
			continue
		}
		var frame []byte
		d, err := b.tr.timed(root, "cluster.fetch."+f.kind, func(int64) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+cluster.ArtifactPathPrefix+f.kind+"/"+f.key, nil)
			if err != nil {
				return err
			}
			resp, err := b.hc.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s", resp.Status)
			}
			frame, err = io.ReadAll(resp.Body)
			return err
		})
		if err != nil {
			return fmt.Errorf("peer fetch %s/%s: %w", f.kind, f.key, err)
		}
		if err := artifact.VerifyFrame(frame, c); err != nil {
			return fmt.Errorf("peer fetch %s/%s: %w", f.kind, f.key, err)
		}
		m["cluster.fetch_ms"] += ms(d)
		m["cluster.fetch_bytes"] += float64(len(frame))
		if f.kind == "corpus" {
			m["cluster.fetch_ms.corpus"] += ms(d)
		}
	}
	if len(files) == 0 {
		return fmt.Errorf("peer fetch: %s holds no artifacts", filepath.Base(dir))
	}
	return nil
}
