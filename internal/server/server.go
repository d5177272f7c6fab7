package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cuisines"
	"cuisines/internal/cluster"
	"cuisines/internal/render"
)

// Config configures a Server.
type Config struct {
	// Base holds the daemon's default analysis options. Requests may
	// override the analysis fields (seed, scale, support, linkage) via
	// query parameters; Workers and Miner always come from Base.
	Base cuisines.Options
	// CacheSize bounds the number of distinct analyses held (LRU);
	// <= 0 means DefaultCacheSize.
	CacheSize int
	// Engine executes analysis-cache misses through the staged
	// pipeline, sharing per-stage artifacts across analyses (and, with
	// a cache dir, across restarts). Nil means a fresh in-memory
	// engine. Ignored when Runner is set.
	Engine *cuisines.Engine
	// Runner overrides the pipeline entry point entirely (tests use
	// counting or stubbed runners); nil means Engine.RunContext.
	Runner Runner
	// MaxConcurrentRuns bounds concurrent pipeline runs admitted on
	// cache misses. 0 means GOMAXPROCS; negative disables admission
	// control entirely (unbounded, the pre-gate behavior).
	MaxConcurrentRuns int
	// MaxQueuedRuns bounds how many misses may wait for a run slot
	// before new ones are rejected with 429. 0 means
	// DefaultMaxQueuedRuns; negative means no queue (reject as soon as
	// every slot is busy).
	MaxQueuedRuns int
	// RenderCacheBytes bounds the rendered-response cache (compact
	// bodies plus their gzip variants) in bytes; <= 0 means
	// render.DefaultMaxBytes. See DESIGN.md §14.
	RenderCacheBytes int64
	// RequestTimeout caps each request's wall-clock time, enforced via
	// the request context (expired requests answer 503). 0 disables.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses; 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// AccessLog, when non-nil, receives one structured (JSON) line per
	// completed request. Nil disables access logging.
	AccessLog *log.Logger
	// Cluster, when non-nil, makes this server a cluster member: /v1
	// requests whose analysis key is owned by another live node are
	// proxied there (single-hop, see HopHeader), the peer artifact
	// routes are registered, and /v1/cluster and /metrics report the
	// fleet view. Nil serves single-node.
	Cluster *cluster.Node
}

// DefaultMaxQueuedRuns is the admission queue depth when the caller
// leaves MaxQueuedRuns zero: enough to absorb a burst, small enough
// that queued callers still see sub-pipeline-run waits.
const DefaultMaxQueuedRuns = 32

// DefaultRetryAfter is the Retry-After hint for 429 responses.
const DefaultRetryAfter = time.Second

// Server serves the Analysis facade over HTTP. All endpoints are GETs
// under /v1 (plus /healthz and /metrics); every response is JSON except
// /v1/newick/{figure} (plain text, byte-equal to Analysis.Newick) and
// /metrics (Prometheus text format).
type Server struct {
	base       cuisines.Options
	cache      *Cache
	renders    *render.Cache
	engine     *cuisines.Engine // nil when a custom Runner bypasses the stage graph
	gate       *Gate            // nil when admission control is disabled
	met        *metrics
	timeout    time.Duration // per-request cap; 0 = none
	retryAfter time.Duration
	accessLog  *log.Logger
	mux        *http.ServeMux

	// HTTP caching counters (see /metrics): conditional requests
	// answered 304, and body bytes actually written per encoding.
	notModified   atomic.Uint64
	bytesIdentity atomic.Uint64
	bytesGzip     atomic.Uint64

	cluster     *cluster.Node // nil when single-node
	proxy       proxyStats
	proxyClient *http.Client
}

// New builds a Server with its routes registered.
func New(cfg Config) *Server {
	engine := cfg.Engine
	run := cfg.Runner
	if run == nil {
		if engine == nil {
			engine = cuisines.NewEngine(cuisines.EngineConfig{})
		}
		run = engine.RunContext
	} else {
		// A custom Runner bypasses the stage graph entirely; reporting
		// a bystander engine's counters would misdescribe the serving
		// path, so cachestats shows stages only when the engine serves.
		engine = nil
	}
	var gate *Gate
	if cfg.MaxConcurrentRuns >= 0 {
		slots := cfg.MaxConcurrentRuns
		if slots == 0 {
			slots = runtime.GOMAXPROCS(0)
		}
		queue := cfg.MaxQueuedRuns
		switch {
		case queue == 0:
			queue = DefaultMaxQueuedRuns
		case queue < 0:
			queue = 0
		}
		gate = NewGate(slots, queue)
	}
	retryAfter := cfg.RetryAfter
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	s := &Server{
		base:       cfg.Base,
		cache:      NewCache(cfg.CacheSize, run, gate),
		renders:    render.New(cfg.RenderCacheBytes),
		engine:     engine,
		gate:       gate,
		met:        newMetrics(),
		timeout:    cfg.RequestTimeout,
		retryAfter: retryAfter,
		accessLog:  cfg.AccessLog,
		cluster:    cfg.Cluster,
		// Forwarded requests carry the original request's context (and
		// with it the per-request timeout); no extra client timeout.
		// DisableCompression keeps proxied bytes exactly as the owner
		// sent them — the proxy must never transcode a response whose
		// ETag and Content-Encoding it forwards.
		proxyClient: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	// Tie render lifetime to analysis lifetime: when the analysis LRU
	// evicts a key, its rendered responses go with it.
	s.cache.onEvict = func(key cuisines.Options) { s.renders.DropOwner(keyString(key)) }
	mux := http.NewServeMux()
	s.route(mux, "GET /healthz", s.handleHealth)
	s.route(mux, "GET /metrics", s.handleMetrics)
	s.route(mux, "GET /internal/v1/ping", s.handlePing)
	if s.cluster != nil {
		s.route(mux, "GET /internal/v1/artifact/{kind}/{key}", s.cluster.ServeArtifact)
	}
	s.route(mux, "GET /v1/cluster", s.handleCluster)
	s.route(mux, "GET /v1/cachestats", s.handleCacheStats)
	s.route(mux, "GET /v1/table", s.with(s.handleTable))
	s.route(mux, "GET /v1/dendrogram/{figure}", s.withFigure(s.handleDendrogram))
	s.route(mux, "GET /v1/newick/{figure}", s.withFigure(s.handleNewick))
	s.route(mux, "GET /v1/clusters/{figure}", s.withFigure(s.handleClusters))
	s.route(mux, "GET /v1/closest/{figure}", s.withFigure(s.handleClosest))
	s.route(mux, "GET /v1/fingerprint/{region}", s.with(s.handleFingerprint))
	s.route(mux, "GET /v1/patterns/{region}", s.with(s.handlePatterns))
	s.route(mux, "GET /v1/rules/{region}", s.with(s.handleRules))
	s.route(mux, "GET /v1/pairings/{region}", s.with(s.handlePairings))
	s.route(mux, "GET /v1/substitutes/{region}", s.with(s.handleSubstitutes))
	s.route(mux, "GET /v1/map", s.with(s.handleMap))
	s.route(mux, "GET /v1/claims", s.with(s.handleClaims))
	s.route(mux, "GET /v1/stats", s.with(s.handleStats))
	s.mux = mux
	return s
}

// route registers h with the in-flight gauge wrapped around it. The
// gauge lives here (not in ServeHTTP) because the endpoint label is the
// route pattern, known statically at registration but only after mux
// dispatch in the middleware.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	endpoint := strings.TrimPrefix(pattern, "GET ")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.met.incInflight(endpoint)
		defer s.met.decInflight(endpoint)
		h(w, r)
	})
}

// ServeHTTP implements http.Handler: it arms the per-request timeout,
// dispatches through the mux, then records metrics and the access-log
// line against the matched route pattern (mux sets r.Pattern on the
// request it was handed, so it is readable here after dispatch —
// unmatched requests get the synthetic "unmatched" label without a
// catch-all route, keeping the mux's own 404/405 behavior intact).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	endpoint := strings.TrimPrefix(r.Pattern, "GET ")
	if endpoint == "" {
		endpoint = "unmatched"
	}
	elapsed := time.Since(start)
	s.met.observe(endpoint, sw.status(), elapsed.Seconds())
	if s.accessLog != nil {
		line, err := json.Marshal(accessRecord{
			Time:       start.UTC().Format(time.RFC3339Nano),
			Method:     r.Method,
			Path:       r.URL.RequestURI(),
			Endpoint:   endpoint,
			Status:     sw.status(),
			Bytes:      sw.bytes,
			DurationMS: float64(elapsed) / float64(time.Millisecond),
			Remote:     r.RemoteAddr,
		})
		if err == nil {
			s.accessLog.Print(string(line))
		}
	}
}

// accessRecord is one access-log line. Fields are stable: dashboards
// may key on them.
type accessRecord struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Endpoint   string  `json:"endpoint"`
	Status     int     `json:"status"`
	Bytes      int64   `json:"bytes"`
	DurationMS float64 `json:"duration_ms"`
	Remote     string  `json:"remote"`
}

// statusWriter records the final status code and body size for metrics
// and access logs.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Warm computes and caches the analysis for the server's base options
// (the -preload path in cuisined). ctx cancels the warmup — tie it to
// the daemon's signal context so shutdown aborts an unfinished preload.
func (s *Server) Warm(ctx context.Context) error {
	_, err := s.cache.Get(ctx, s.base)
	return err
}

// requestOptions merges per-request query parameters over the base
// options, returning both the merged form (the cache lookup input,
// Workers and Miner intact) and its canonical form (every default
// applied and every name normalized — what /v1/stats echoes).
// Malformed or unknown values are a client error.
func (s *Server) requestOptions(r *http.Request) (opts, canon cuisines.Options, err error) {
	opts = s.base
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, canon, fmt.Errorf("bad seed %q", v)
		}
		opts.Seed = seed
	}
	if v := q.Get("scale"); v != "" {
		scale, err := strconv.ParseFloat(v, 64)
		if err != nil || scale <= 0 || scale > MaxScale {
			return opts, canon, fmt.Errorf("scale must be in (0, %g]", float64(MaxScale))
		}
		opts.Scale = scale
	}
	if v := q.Get("support"); v != "" {
		sup, err := strconv.ParseFloat(v, 64)
		if err != nil || sup <= 0 || sup > 1 {
			return opts, canon, fmt.Errorf("bad support %q", v)
		}
		opts.MinSupport = sup
	}
	if v := q.Get("linkage"); v != "" {
		opts.Linkage = v
	}
	canon, err = opts.Canonical()
	if err != nil {
		return opts, canon, err
	}
	return opts, canon, nil
}

// MaxScale bounds the per-request scale override: an unauthenticated
// query must not be able to demand an arbitrarily large corpus.
const MaxScale = 4

// analysisHandler is an endpoint handler that already has its analysis
// resolved (carried in the resource, alongside the render-cache owner
// and the canonical options).
type analysisHandler func(w http.ResponseWriter, r *http.Request, rc *resource)

// figureHandler additionally has its {figure} path segment resolved.
type figureHandler func(w http.ResponseWriter, r *http.Request, rc *resource, f cuisines.Figure)

// with resolves the request's analysis through the cache before calling
// h: bad analysis parameters are a 400, saturation a 429, an expired or
// abandoned request a 503, any other pipeline failure a 500.
func (s *Server) with(h analysisHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		opts, canon, err := s.requestOptions(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if s.maybeProxy(w, r, opts) {
			return
		}
		a, err := s.cache.Get(r.Context(), opts)
		if err != nil {
			s.writeAnalysisError(w, err)
			return
		}
		// The render owner is the analysis cache key (canon with the two
		// output-neutral knobs zeroed), so requests differing only in
		// workers share rendered bytes just as they share the analysis.
		key := canon
		key.Workers = 0
		key.Miner = ""
		h(w, r, &resource{s: s, a: a, owner: keyString(key), canon: canon, pretty: isPretty(r)})
	}
}

// writeAnalysisError maps Cache.Get failures onto status codes: a full
// admission queue is the client's cue to back off and retry (429 +
// Retry-After); a request that ran out of time or whose client went
// away is a 503 (the service was too slow, not wrong); anything else is
// a genuine pipeline failure (500).
func (s *Server) writeAnalysisError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		secs := int(s.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// withFigure validates the {figure} path segment BEFORE resolving the
// analysis, so a bogus figure is a cheap 404 rather than a pipeline run
// against a cold cache key.
func (s *Server) withFigure(h figureHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f, err := cuisines.ParseFigure(r.PathValue("figure"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		s.with(func(w http.ResponseWriter, r *http.Request, rc *resource) {
			h(w, r, rc, f)
		})(w, r)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, cuisines.HealthResponse{Status: "ok", Cached: s.cache.Len()})
}

// CacheStats reports the analysis cache counters plus the engine's
// per-stage artifact counters (empty when a custom Runner bypasses the
// stage graph). The daemon logs the same numbers at shutdown.
func (s *Server) CacheStats() cuisines.CacheStatsResponse {
	rs := s.renders.Stats()
	resp := cuisines.CacheStatsResponse{
		Analyses: s.cache.Stats(),
		Stages:   map[string]cuisines.StageCacheStats{},
		Renders: cuisines.RenderCacheStats{
			Entries:       rs.Entries,
			Bytes:         rs.Bytes,
			CapacityBytes: rs.MaxBytes,
			Hits:          rs.Hits,
			Misses:        rs.Misses,
			Evictions:     rs.Evictions,
			InFlightJoins: rs.InFlightJoins,
			GzipVariants:  rs.GzipVariants,
			NotModified:   s.notModified.Load(),
		},
	}
	if s.engine != nil {
		resp.Stages = s.engine.CacheStats()
	}
	return resp
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.CacheStats())
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request, rc *resource) {
	rc.serveJSON(w, r, func() (any, error) {
		return cuisines.TableResponse{Rows: rc.a.Table()}, nil
	})
}

func (s *Server) handleDendrogram(w http.ResponseWriter, r *http.Request, rc *resource, f cuisines.Figure) {
	rc.serveJSON(w, r, func() (any, error) {
		d, err := rc.a.Dendrogram(f)
		if err != nil {
			return nil, err
		}
		return cuisines.DendrogramResponse{Figure: f.String(), Dendrogram: d}, nil
	})
}

func (s *Server) handleNewick(w http.ResponseWriter, r *http.Request, rc *resource, f cuisines.Figure) {
	rc.serveBytes(w, r, "text/plain; charset=utf-8", func() ([]byte, error) {
		nw, err := rc.a.Newick(f)
		if err != nil {
			return nil, err
		}
		return []byte(nw), nil
	})
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request, rc *resource, f cuisines.Figure) {
	k, err := queryInt(r, "k", 0)
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be a positive integer"))
		return
	}
	rc.serveJSON(w, r, func() (any, error) {
		groups, err := rc.a.Clusters(f, k)
		if err != nil {
			return nil, failWith(http.StatusBadRequest, err)
		}
		return cuisines.ClustersResponse{Figure: f.String(), K: k, Clusters: groups}, nil
	})
}

func (s *Server) handleClosest(w http.ResponseWriter, r *http.Request, rc *resource, f cuisines.Figure) {
	region := r.URL.Query().Get("region")
	if region == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing region parameter"))
		return
	}
	if !rc.a.HasRegion(region) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown region %q", region))
		return
	}
	rc.serveJSON(w, r, func() (any, error) {
		closest, err := rc.a.ClosestCuisine(f, region)
		if err != nil {
			return nil, err
		}
		d, err := rc.a.CuisineDistance(f, region, closest)
		if err != nil {
			return nil, err
		}
		return cuisines.ClosestResponse{
			Figure: f.String(), Region: region, Closest: closest, Distance: d,
		}, nil
	})
}

func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request, rc *resource) {
	region, ok := pathRegion(w, r, rc.a)
	if !ok {
		return
	}
	k, err := queryInt(r, "k", 10)
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be a positive integer"))
		return
	}
	rc.serveJSON(w, r, func() (any, error) {
		fp, err := rc.a.Fingerprint(region, k)
		if err != nil {
			return nil, err
		}
		return fp, nil
	})
}

func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request, rc *resource) {
	region, ok := pathRegion(w, r, rc.a)
	if !ok {
		return
	}
	rc.serveJSON(w, r, func() (any, error) {
		ps, err := rc.a.CuisinePatterns(region)
		if err != nil {
			return nil, err
		}
		return cuisines.PatternsResponse{Region: region, Patterns: ps}, nil
	})
}

// ruleParams parses the shared min_confidence / max query parameters.
func ruleParams(r *http.Request) (minConfidence float64, maxRules int, err error) {
	q := r.URL.Query()
	if v := q.Get("min_confidence"); v != "" {
		minConfidence, err = strconv.ParseFloat(v, 64)
		if err != nil || minConfidence <= 0 || minConfidence > 1 {
			return 0, 0, fmt.Errorf("bad min_confidence %q", v)
		}
	}
	maxRules, err = queryInt(r, "max", 0)
	if err != nil || maxRules < 0 {
		return 0, 0, fmt.Errorf("bad max parameter")
	}
	return minConfidence, maxRules, nil
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request, rc *resource) {
	region, ok := pathRegion(w, r, rc.a)
	if !ok {
		return
	}
	minConf, maxRules, err := ruleParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rc.serveJSON(w, r, func() (any, error) {
		rules, err := rc.a.AssociationRules(region, minConf, maxRules)
		if err != nil {
			return nil, err
		}
		return cuisines.RulesResponse{Region: region, Rules: rules}, nil
	})
}

func (s *Server) handlePairings(w http.ResponseWriter, r *http.Request, rc *resource) {
	region, ok := pathRegion(w, r, rc.a)
	if !ok {
		return
	}
	minConf, maxRules, err := ruleParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rc.serveJSON(w, r, func() (any, error) {
		pairing, err := rc.a.FoodPairingFor(region)
		if err != nil {
			return nil, err
		}
		rules, err := rc.a.IngredientPairings(region, minConf, maxRules)
		if err != nil {
			return nil, err
		}
		return cuisines.PairingsResponse{Region: region, Pairing: pairing, Rules: rules}, nil
	})
}

func (s *Server) handleSubstitutes(w http.ResponseWriter, r *http.Request, rc *resource) {
	region, ok := pathRegion(w, r, rc.a)
	if !ok {
		return
	}
	ingredient := r.URL.Query().Get("ingredient")
	if ingredient == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ingredient parameter"))
		return
	}
	k, err := queryInt(r, "k", 10)
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be a positive integer"))
		return
	}
	rc.serveJSON(w, r, func() (any, error) {
		subs, err := rc.a.Substitutes(region, ingredient, k)
		if err != nil {
			// The region exists (checked above), so the failure is the
			// ingredient having no frequent context in this cuisine.
			return nil, failWith(http.StatusNotFound, err)
		}
		return cuisines.SubstitutesResponse{
			Region: region, Ingredient: ingredient, Substitutes: subs,
		}, nil
	})
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request, rc *resource) {
	q := r.URL.Query()
	wantImage := q.Has("width") || q.Has("height")
	var width, height int
	if wantImage {
		var err error
		width, err = queryInt(r, "width", 0)
		if err != nil || width < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad width parameter"))
			return
		}
		height, err = queryInt(r, "height", 0)
		if err != nil || height < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad height parameter"))
			return
		}
	}
	rc.serveJSON(w, r, func() (any, error) {
		points, variance, err := rc.a.CuisineMap()
		if err != nil {
			return nil, err
		}
		resp := cuisines.MapResponse{Points: points, VarianceExplained: variance}
		if wantImage {
			rendered, err := rc.a.RenderCuisineMap(width, height)
			if err != nil {
				return nil, err
			}
			resp.Rendered = rendered
		}
		return resp, nil
	})
}

func (s *Server) handleClaims(w http.ResponseWriter, r *http.Request, rc *resource) {
	rc.serveJSON(w, r, func() (any, error) {
		return cuisines.ClaimsResponse{
			Claims:  rc.a.Claims(),
			Fits:    rc.a.GeographyFits(),
			AllHold: rc.a.AllClaimsHold(),
		}, nil
	})
}

// handleStats echoes the canonical miner name ("eclat", the only one)
// alongside the corpus statistics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, rc *resource) {
	rc.serveJSON(w, r, func() (any, error) {
		return cuisines.StatsResponse{Stats: rc.a.Stats(), Miner: rc.canon.Miner}, nil
	})
}

// pathRegion parses the {region} path segment, answering 404 itself on
// unknown regions. Membership checks go through Analysis.HasRegion,
// which memoizes a region index — no per-request linear scan.
func pathRegion(w http.ResponseWriter, r *http.Request, a *cuisines.Analysis) (string, bool) {
	region := r.PathValue("region")
	if !a.HasRegion(region) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown region %q", region))
		return "", false
	}
	return region, true
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// writeJSON marshals before touching the ResponseWriter, so an
// encoding failure (e.g. a non-finite float escaping into a response
// type) becomes a clean 500 instead of a 200 with a truncated body.
// Bodies are compact — the wire format is for machines; humans opt in
// to indentation with ?pretty=1 (writeJSONIndent).
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		log.Printf("server: encoding %T: %v", v, err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

// writeJSONIndent is the ?pretty=1 path: same value, indented for
// humans, never cached.
func writeJSONIndent(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Printf("server: encoding %T: %v", v, err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, cuisines.ErrorResponse{Error: err.Error()})
}
