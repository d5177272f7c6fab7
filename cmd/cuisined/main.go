// Command cuisined is the analysis daemon: it computes the paper's full
// evaluation once per distinct option set, caches it, and answers
// queries — Table I, dendrograms, Newick exports, cluster cuts,
// fingerprints, patterns, association rules, food pairings, ingredient
// substitutions, the cuisine map, the Sec. VII claims and the corpus
// statistics — as a JSON HTTP API.
//
// Usage:
//
//	cuisined -addr :8372 -preload            # warm the default analysis at boot
//	cuisined -scale 0.25 -workers 4          # quarter-scale default, bounded pool
//	cuisined -cache-dir /var/cache/cuisined  # persist stage artifacts; restarts come back warm
//	cuisined -doctor -cache-dir /var/cache/cuisined  # self-check, then exit
//
//	cuisined -self http://10.0.0.1:8372 \
//	    -peers http://10.0.0.2:8372,http://10.0.0.3:8372  # cluster member
//
//	curl localhost:8372/healthz
//	curl localhost:8372/v1/table
//	curl localhost:8372/v1/newick/fig5-authenticity
//	curl 'localhost:8372/v1/closest/fig6-geographic?region=UK'
//	curl localhost:8372/metrics
//
// Requests may select a different analysis with seed=, scale=, support=
// and linkage= query parameters; each distinct combination is computed
// once and kept in an LRU cache. Underneath it, the staged pipeline
// caches per-stage artifacts, so analyses that share a corpus and
// mining run (different linkage, different figure) share that work;
// with -cache-dir the artifacts persist across restarts.
//
// Clustering: with -self and -peers every node joins a consistent-hash
// ring (see DESIGN.md §13). Requests are proxied to the analysis key's
// live owner (single hop), and on a local artifact miss a node asks
// its peers for the bytes before recomputing — one node's cold miss is
// the fleet's warm hit. /v1/cluster reports the node's fleet view.
//
// Operability: every request runs under a context — a client that
// disconnects (or outlives -request-timeout) stops its pipeline run at
// the next stage boundary unless other requests still wait on it.
// Cache misses pass a bounded admission queue (-max-runs / -max-queue);
// past its depth the daemon answers 429 + Retry-After instead of
// queueing unboundedly. /metrics exposes Prometheus-text counters. The
// daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests first and logging its final /metrics exposition.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cuisines"
	"cuisines/internal/cluster"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/pipeline"
	"cuisines/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cuisined: ")
	var (
		addr      = flag.String("addr", ":8372", "listen address")
		workers   = flag.Int("workers", 0, "worker pool size per pipeline run (0 = all cores, 1 = sequential; output is identical)")
		cacheSize = flag.Int("cache-size", server.DefaultCacheSize, "max distinct analyses kept (LRU)")
		cacheDir  = flag.String("cache-dir", "", "persist pipeline stage artifacts here so restarts come back warm (empty = memory only)")
		cacheMax  = flag.Int64("cache-max-bytes", 0, "cache-dir size cap; least-recently-used artifacts are deleted above it (0 = 4 GiB default)")
		renderMax = flag.Int64("render-cache-bytes", 0, "rendered-response cache byte budget (bodies + gzip variants, LRU; 0 = 32 MiB default)")
		preload   = flag.Bool("preload", false, "warm the default analysis at boot")
		scale     = flag.Float64("scale", 1.0, "default corpus scale")
		seed      = flag.Uint64("seed", corpus.DefaultSeed, "default corpus generator seed")
		support   = flag.Float64("support", core.DefaultMinSupport, "default pattern-mining support threshold")
		linkage   = flag.String("linkage", core.DefaultLinkage.String(), "default linkage method")

		reqTimeout = flag.Duration("request-timeout", 0, "per-request wall-clock cap; expired requests answer 503 (0 = none)")
		maxRuns    = flag.Int("max-runs", 0, "concurrent pipeline runs admitted on cache misses (0 = all cores, -1 = unbounded)")
		maxQueue   = flag.Int("max-queue", 0, "cache misses allowed to wait for a run slot before 429 (0 = default, -1 = none)")
		retryAfter = flag.Duration("retry-after", server.DefaultRetryAfter, "Retry-After hint sent with 429 responses")
		accessLogs = flag.Bool("access-log", true, "emit one structured JSON line per request to stdout")

		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "max time to read a request's headers; drops slowloris connections")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "max time to read an entire request including its body")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")

		selfURL      = flag.String("self", "", "this node's base URL as peers reach it (e.g. http://10.0.0.1:8372); required with -peers")
		peersList    = flag.String("peers", "", "comma-separated base URLs of the other cluster nodes; enables peer artifact exchange and consistent-hash routing")
		replicas     = flag.Int("replicas", 0, "ring owners per analysis key (0 = default 2); higher survives more node deaths warm")
		peerInterval = flag.Duration("peer-interval", cluster.DefaultProbeInterval, "peer health probe period")
		peerTimeout  = flag.Duration("peer-timeout", cluster.DefaultProbeTimeout, "per-probe timeout; failing peers back off exponentially")
		fetchTimeout = flag.Duration("peer-fetch-timeout", cluster.DefaultFetchTimeout, "per-artifact peer fetch timeout")

		doctor = flag.Bool("doctor", false, "run startup self-checks (cache dir writable, artifact codec versions), then exit")
	)
	flag.Parse()

	if *doctor {
		if err := runDoctor(os.Stdout, *cacheDir, *linkage); err != nil {
			log.Fatalf("doctor: %v", err)
		}
		return
	}

	if *cacheDir != "" {
		// Fail fast on a misconfigured flag; individual artifact files
		// are best-effort, but an uncreatable directory is operator error.
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			log.Fatalf("cache-dir: %v", err)
		}
		log.Printf("persisting stage artifacts in %s", *cacheDir)
	}
	engine := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: *cacheDir, MaxCacheBytes: *cacheMax})

	var node *cluster.Node
	if *peersList != "" {
		if *selfURL == "" {
			log.Fatal("-peers requires -self (this node's own base URL as peers reach it)")
		}
		var peers []string
		for _, p := range strings.Split(*peersList, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		var err error
		node, err = cluster.New(cluster.Config{
			Self:          *selfURL,
			Peers:         peers,
			Replicas:      *replicas,
			Store:         engine.ArtifactStore(),
			Codecs:        pipeline.Codecs(),
			Now:           time.Now,
			ProbeInterval: *peerInterval,
			ProbeTimeout:  *peerTimeout,
			FetchTimeout:  *fetchTimeout,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("cluster: self=%s peers=%d replicas=%d", node.Self(), len(peers), node.Ring().Replicas())
	}

	var accessLog *log.Logger
	if *accessLogs {
		accessLog = log.New(os.Stdout, "", 0)
	}
	srv := server.New(server.Config{
		Base: cuisines.Options{
			Seed:       *seed,
			Scale:      *scale,
			MinSupport: *support,
			Linkage:    *linkage,
			Workers:    *workers,
		},
		CacheSize:         *cacheSize,
		RenderCacheBytes:  *renderMax,
		Engine:            engine,
		MaxConcurrentRuns: *maxRuns,
		MaxQueuedRuns:     *maxQueue,
		RequestTimeout:    *reqTimeout,
		RetryAfter:        *retryAfter,
		AccessLog:         accessLog,
		Cluster:           node,
	})

	// The signal context exists before any background work starts so
	// both the preload below and graceful shutdown hang off it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if node != nil {
		// The blocking health loop lives here: internal/cluster spawns no
		// goroutines of its own (the nakedgo lint contract).
		go node.Run(ctx)
	}

	preloadDone := make(chan struct{})
	if *preload {
		// Warm concurrently so /healthz answers immediately; the first
		// /v1 request joins the in-flight run instead of starting
		// another. The goroutine is tied to the signal context (shutdown
		// aborts an unfinished warm) and awaited before the final
		// metrics log, so that log reflects its cache traffic.
		go func() {
			defer close(preloadDone)
			start := time.Now()
			err := srv.Warm(ctx)
			switch {
			case err == nil:
				log.Printf("preload done in %v", time.Since(start).Round(time.Millisecond))
			case errors.Is(err, context.Canceled):
				log.Printf("preload aborted by shutdown")
			default:
				log.Printf("preload failed: %v", err)
			}
		}()
	} else {
		close(preloadDone)
	}

	hs := newHTTPServer(*addr, srv, *readHeaderTimeout, *readTimeout, *idleTimeout)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		<-preloadDone
		var final strings.Builder
		srv.WriteMetrics(&final)
		log.Printf("final metrics:\n%s", final.String())
		log.Printf("shut down cleanly")
	}
}

// newHTTPServer builds the daemon's http.Server with its connection
// timeouts. ReadHeaderTimeout is the slowloris defense: a client that
// trickles header bytes is dropped. WriteTimeout stays zero on purpose
// — a cold full-scale pipeline run legitimately takes longer than any
// fixed write deadline, and the request-timeout flag already bounds
// handler time via the context.
func newHTTPServer(addr string, h http.Handler, readHeader, read, idle time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		IdleTimeout:       idle,
	}
}
