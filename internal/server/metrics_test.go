package server

import (
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cuisines"
	"cuisines/internal/cluster"
	"cuisines/internal/pipeline"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestMetricsExpositionGolden pins the full /metrics bytes of a
// two-node fleet member whose every series family is populated: HTTP
// counters and histogram, analysis cache, render cache, HTTP caching,
// per-stage artifact cache, admission gate and cluster exchange.
// bench/promtext.go parses this text, so any change to it must be
// deliberate. The HTTP series come from fixed observations (request
// latencies are wall-clock), and the peer's ephemeral port is replaced
// by a placeholder; everything else is what the requests produced.
func TestMetricsExpositionGolden(t *testing.T) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	srvs := make([]*Server, 2)
	for i := range srvs {
		engine := cuisines.NewEngine(cuisines.EngineConfig{})
		node, err := cluster.New(cluster.Config{
			Self:     urls[i],
			Peers:    []string{urls[1-i]},
			Replicas: 2,
			Store:    engine.ArtifactStore(),
			Codecs:   pipeline.Codecs(),
			Now:      time.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = New(Config{
			Base:              cuisines.Options{Scale: testScale},
			Engine:            engine,
			Cluster:           node,
			MaxConcurrentRuns: 2,
			MaxQueuedRuns:     4,
		})
		ts := httptest.NewUnstartedServer(srvs[i])
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
	}
	do := func(base, path string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HopHeader, "1")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Node 0 computes (its peer fetches miss); node 1 then fetches every
	// stage from node 0, serves identity and gzip bodies and answers a
	// 304. Node 1 computes a second analysis and serves it to node 0.
	identity := map[string]string{"Accept-Encoding": "identity"}
	do(urls[0], "/v1/table", nil)
	first := do(urls[1], "/v1/table", identity)
	do(urls[1], "/v1/table", map[string]string{"Accept-Encoding": "gzip"})
	do(urls[1], "/v1/table", map[string]string{"If-None-Match": first.Header.Get("ETag")})
	do(urls[1], "/v1/newick/fig2-euclidean", identity)
	do(urls[1], "/v1/table?seed=7", identity)
	do(urls[0], "/v1/table?seed=7", identity)

	s := srvs[1]
	s.met = newMetrics()
	s.met.observe("/v1/table", 200, 0.004)
	s.met.observe("/v1/table", 200, 0.3)
	s.met.observe("/v1/table", 503, 12)
	s.met.observe("unmatched", 404, 0.0001)
	s.met.incInflight("/metrics")

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := strings.ReplaceAll(rec.Body.String(), urls[0], "http://peer-0")

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics exposition drifted from %s:\n%s", path, got)
	}
}
