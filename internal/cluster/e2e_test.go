// End-to-end cluster tests: real HTTP between in-process cuisined
// nodes that share nothing on disk. These pin the tentpole claims from
// DESIGN.md §13 — cluster-warm serving (one node computes, the rest
// serve byte-identically with zero stage recomputes), verification on
// receipt (a corrupt peer response can never poison a cache), and
// graceful degradation (a dead owner downgrades to local compute,
// never to an error).
package cluster_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cuisines"
	"cuisines/internal/artifact"
	"cuisines/internal/cluster"
	"cuisines/internal/pipeline"
	"cuisines/internal/server"
)

// testScale mirrors the server suite's fixture scale: fast pipeline
// runs, all 26 regions.
const testScale = 0.02

type testNode struct {
	url    string
	engine *cuisines.Engine
	node   *cluster.Node
	srv    *httptest.Server
}

// startCluster boots n cuisined nodes on loopback listeners, each with
// its own engine and its own (empty) cache dir, all knowing the full
// peer list. No health loop runs; tests drive sweeps via CheckNow.
func startCluster(t *testing.T, n, replicas int) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		engine := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: t.TempDir()})
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		node, err := cluster.New(cluster.Config{
			Self:     urls[i],
			Peers:    peers,
			Replicas: replicas,
			Store:    engine.ArtifactStore(),
			Codecs:   pipeline.Codecs(),
			Now:      time.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{
			Base:    cuisines.Options{Scale: testScale},
			Engine:  engine,
			Cluster: node,
		})
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{url: urls[i], engine: engine, node: node, srv: ts}
	}
	return nodes
}

// getNode performs one GET against a node. local pins local serving
// via the hop header (what the proxy sets), bypassing cluster routing.
func getNode(t *testing.T, base, path string, local bool) (int, []byte) {
	code, body, _ := getNodeHdr(t, base, path, local, nil)
	return code, body
}

// getNodeHdr is getNode with request headers in and response headers
// out, for the HTTP-caching passthrough assertions.
func getNodeHdr(t *testing.T, base, path string, local bool, headers map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if local {
		req.Header.Set(server.HopHeader, "1")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// metricValue scrapes a node's /metrics and returns the value of one
// series, given as it appears on its sample line (name plus labels).
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
	code, body := getNode(t, base, "/metrics", true)
	if code != 200 {
		t.Fatalf("GET %s/metrics = %d", base, code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s/metrics: %q: %v", base, line, err)
			}
			return f
		}
	}
	t.Fatalf("%s/metrics has no %s:\n%s", base, series, body)
	return 0
}

// stageTotals sums the per-stage cache counters of one engine.
func stageTotals(e *cuisines.Engine) (computed, peerHits uint64) {
	for _, s := range e.CacheStats() {
		computed += s.Computed
		peerHits += s.PeerHits
	}
	return
}

// TestClusterWarmServing is the acceptance test: three nodes sharing
// nothing on disk; node A computes an analysis; nodes B and C then
// serve the same requests byte-identically with ZERO stage recomputes
// — every artifact arrives over the peer exchange.
func TestClusterWarmServing(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	ctx := context.Background()
	paths := []string{"/v1/newick/fig5-authenticity", "/v1/table"}

	// A computes locally (hop header pins local serving, exactly as a
	// proxied request would arrive).
	bodiesA := make(map[string][]byte, len(paths))
	etagsA := make(map[string]string, len(paths))
	for _, p := range paths {
		code, body, h := getNodeHdr(t, nodes[0].url, p, true, nil)
		if code != 200 {
			t.Fatalf("node A GET %s = %d\n%s", p, code, body)
		}
		bodiesA[p] = body
		etagsA[p] = h.Get("ETag")
		if etagsA[p] == "" {
			t.Fatalf("node A GET %s: no ETag", p)
		}
	}
	if computed, _ := stageTotals(nodes[0].engine); computed == 0 {
		t.Fatal("node A served without computing anything; fixture broken")
	}

	for _, tn := range nodes {
		tn.node.CheckNow(ctx)
	}

	for i, tn := range nodes[1:] {
		name := string(rune('B' + i))
		for _, p := range paths {
			code, body, h := getNodeHdr(t, tn.url, p, true, nil)
			if code != 200 {
				t.Fatalf("node %s GET %s = %d\n%s", name, p, code, body)
			}
			if !bytes.Equal(body, bodiesA[p]) {
				t.Fatalf("node %s GET %s not byte-identical to node A:\n%q\nvs\n%q", name, p, body, bodiesA[p])
			}
			// The determinism invariant makes strong validators
			// fleet-stable: every node computes the same sha256.
			if h.Get("ETag") != etagsA[p] {
				t.Fatalf("node %s GET %s ETag %q != node A's %q", name, p, h.Get("ETag"), etagsA[p])
			}
			// A validator issued by node A revalidates against this node.
			if code, body, _ := getNodeHdr(t, tn.url, p, true, map[string]string{"If-None-Match": etagsA[p]}); code != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("node %s GET %s with node A's validator = %d (%d bytes), want empty 304", name, p, code, len(body))
			}
		}
		// The pinned counters: cluster-warm means zero stage recomputes.
		for kind, s := range tn.engine.CacheStats() {
			if s.Computed != 0 {
				t.Errorf("node %s recomputed stage %q %d times; want peer fetch", name, kind, s.Computed)
			}
		}
		if _, peerHits := stageTotals(tn.engine); peerHits == 0 {
			t.Fatalf("node %s served with no peer hits", name)
		}
		m := tn.node.Metrics()
		if m.FetchHits == 0 {
			t.Fatalf("node %s exchange metrics show no fetch hits: %+v", name, m)
		}
		if m.FetchRejects != 0 {
			t.Fatalf("node %s rejected %d frames from healthy peers", name, m.FetchRejects)
		}
	}

	// The computing node served its peers.
	if m := nodes[0].node.Metrics(); m.ServeHits == 0 {
		t.Fatalf("node A exchange metrics show no serve hits: %+v", m)
	}
	// Every one of them was A's verified disk frame, sent as stored: A
	// has a cache dir and had written each artifact before answering.
	if m := nodes[0].node.Metrics(); m.ServeDisk != m.ServeHits || m.ServeMemory != 0 || m.ServeDiskRejects != 0 {
		t.Fatalf("node A serves by source: %+v; want all from disk", m)
	}
	code, metricsA := getNode(t, nodes[0].url, "/metrics", true)
	if code != 200 {
		t.Fatalf("GET node A /metrics = %d", code)
	}
	for _, re := range []string{
		`cuisined_peer_serve_source_total\{source="disk"\} [1-9]`,
		`cuisined_peer_serve_source_total\{source="memory"\} 0\n`,
		`cuisined_peer_serve_disk_rejects_total 0\n`,
	} {
		if !regexp.MustCompile(re).Match(metricsA) {
			t.Fatalf("node A /metrics missing %s:\n%s", re, metricsA)
		}
	}

	// The counters are on /metrics for the CI grep and operators.
	code, metricsBody := getNode(t, nodes[1].url, "/metrics", true)
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, re := range []string{
		`cuisined_peer_fetch_total\{result="hit"\} [1-9]`,
		`cuisined_peer_healthy\{peer="[^"]+"\} 1`,
	} {
		if !regexp.MustCompile(re).Match(metricsBody) {
			t.Fatalf("/metrics missing %s:\n%s", re, metricsBody)
		}
	}

	// /v1/cluster reports the fleet view.
	code, body := getNode(t, nodes[1].url, "/v1/cluster", true)
	if code != 200 {
		t.Fatalf("GET /v1/cluster = %d", code)
	}
	var cr cuisines.ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("decode /v1/cluster: %v\n%s", err, body)
	}
	if !cr.Enabled || cr.Self != nodes[1].url || len(cr.Members) != 3 || len(cr.Peers) != 2 {
		t.Fatalf("/v1/cluster: %+v", cr)
	}
	// Node A's serve sources on /metrics are its exchange's counts.
	if m := nodes[0].node.Metrics(); metricValue(t, nodes[0].url, `cuisined_peer_serve_source_total{source="disk"}`) != float64(m.ServeDisk) ||
		metricValue(t, nodes[0].url, `cuisined_peer_serve_source_total{source="memory"}`) != 0 {
		t.Fatalf("node A /metrics serve sources disagree with its exchange %+v", m)
	}
}

// TestClusterRestartFetchesNoCorpus: a node with an empty cache
// directory serves /v1/table from a warm peer without asking for the
// corpus, the one artifact that endpoint never reads. Every other
// artifact the peer computed still arrives over the wire and passes
// verification, one fetch each.
func TestClusterRestartFetchesNoCorpus(t *testing.T) {
	nodes := startCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]
	code, want := getNode(t, a.url, "/v1/table", true)
	if code != 200 {
		t.Fatalf("node A /v1/table = %d\n%s", code, want)
	}
	for _, tn := range nodes {
		tn.node.CheckNow(context.Background())
	}
	code, got := getNode(t, b.url, "/v1/table", true)
	if code != 200 || !bytes.Equal(got, want) {
		t.Fatalf("node B /v1/table = %d, byte-identical %v", code, bytes.Equal(got, want))
	}

	computedA := a.engine.CacheStats()
	if computedA["corpus"].Computed != 1 {
		t.Fatalf("node A corpus stats %+v; fixture broken", computedA["corpus"])
	}
	var others uint64
	statsB := b.engine.CacheStats()
	for kind, sa := range computedA {
		sb := statsB[kind]
		if kind == "corpus" {
			if sb != (cuisines.StageCacheStats{}) {
				t.Errorf("node B touched the corpus: %+v", sb)
			}
			continue
		}
		others += sa.Computed
		if sb.PeerHits != sa.Computed || sb.Computed != 0 {
			t.Errorf("node B stage %s: %+v, want %d peer hits and nothing computed", kind, sb, sa.Computed)
		}
	}
	m := b.node.Metrics()
	attempts := m.FetchHits + m.FetchMisses + m.FetchErrors + m.FetchRejects
	if attempts != others || m.FetchHits != others || m.FetchRejects != 0 {
		t.Fatalf("node B exchange %+v; want exactly %d verified fetches, one per non-corpus artifact", m, others)
	}
}

// blobCodec is a minimal test codec for store-level exchange tests.
type blobCodec struct{}

func (blobCodec) Kind() string { return "blob" }
func (blobCodec) Version() int { return 1 }
func (blobCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	return append(dst, v.([]byte)...), nil
}
func (blobCodec) DecodeBytes(data []byte) (any, error) { return bytes.Clone(data), nil }

// fakePeer serves a fixed body (or 404) on the artifact wire route and
// answers health pings, standing in for a cuisined peer.
func fakePeer(t *testing.T, artifactBody []byte) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(cluster.PingPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc(cluster.ArtifactPathPrefix, func(w http.ResponseWriter, r *http.Request) {
		if artifactBody == nil {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write(artifactBody)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newExchangeNode wires a bare store to one fake peer.
func newExchangeNode(t *testing.T, peerURL string) (*artifact.Store, *cluster.Node) {
	t.Helper()
	store := artifact.NewStore(artifact.Options{})
	node, err := cluster.New(cluster.Config{
		Self:   "http://127.0.0.1:1", // never dialed: serving side only
		Peers:  []string{peerURL},
		Store:  store,
		Codecs: map[string]artifact.Codec{"blob": blobCodec{}},
		Now:    time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, node
}

// TestPeerFetchHit: a valid peer frame satisfies a local miss without
// running compute, and counts as a peer hit.
func TestPeerFetchHit(t *testing.T) {
	want := []byte("the artifact payload")
	frame, err := artifact.EncodeFrame(blobCodec{}, want)
	if err != nil {
		t.Fatal(err)
	}
	store, node := newExchangeNode(t, fakePeer(t, frame).URL)

	computed := false
	got, err := store.GetOrCompute(context.Background(), "k1", blobCodec{}, func() (any, error) {
		computed = true
		return []byte("recomputed"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed {
		t.Fatal("compute ran despite a valid peer frame")
	}
	if !bytes.Equal(got.([]byte), want) {
		t.Fatalf("peer-fetched value = %q, want %q", got, want)
	}
	if m := node.Metrics(); m.FetchHits != 1 || m.FetchRejects != 0 {
		t.Fatalf("exchange metrics: %+v", m)
	}
	if s := store.Stats()["blob"]; s.PeerHits != 1 || s.Computed != 0 {
		t.Fatalf("store stats: %+v", s)
	}
}

// TestPeerFetchCorruptRejected is the poisoning regression test: a
// peer answering garbage is rejected by frame verification and the
// node recomputes — the bad bytes never enter the cache.
func TestPeerFetchCorruptRejected(t *testing.T) {
	corrupt := [][]byte{
		[]byte("not a frame at all"),
		{},
	}
	// A frame with a flipped payload byte: magic and lengths are fine,
	// the checksum is not.
	frame, err := artifact.EncodeFrame(blobCodec{}, []byte("the artifact payload"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0xff
	corrupt = append(corrupt, flipped)

	for i, body := range corrupt {
		store, node := newExchangeNode(t, fakePeer(t, body).URL)
		computed := 0
		got, err := store.GetOrCompute(context.Background(), "k1", blobCodec{}, func() (any, error) {
			computed++
			return []byte("recomputed"), nil
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if computed != 1 {
			t.Fatalf("case %d: compute ran %d times, want 1 (corrupt frame must force recompute)", i, computed)
		}
		if !bytes.Equal(got.([]byte), []byte("recomputed")) {
			t.Fatalf("case %d: got %q — corrupt peer bytes leaked into the result", i, got)
		}
		if m := node.Metrics(); m.FetchRejects != 1 || m.FetchHits != 0 {
			t.Fatalf("case %d: exchange metrics: %+v", i, m)
		}
		// And the poisoned bytes are not cached: a second get is a clean
		// memory hit of the computed value.
		again, err := store.GetOrCompute(context.Background(), "k1", blobCodec{}, func() (any, error) {
			t.Fatalf("case %d: second get recomputed", i)
			return nil, nil
		})
		if err != nil || !bytes.Equal(again.([]byte), []byte("recomputed")) {
			t.Fatalf("case %d: second get = %q, %v", i, again, err)
		}
	}
}

// TestPeerFetchMiss: peers without the artifact answer 404 and the
// node computes, still error-free.
func TestPeerFetchMiss(t *testing.T) {
	store, node := newExchangeNode(t, fakePeer(t, nil).URL)
	got, err := store.GetOrCompute(context.Background(), "k1", blobCodec{}, func() (any, error) {
		return []byte("computed"), nil
	})
	if err != nil || !bytes.Equal(got.([]byte), []byte("computed")) {
		t.Fatalf("got %q, %v", got, err)
	}
	if m := node.Metrics(); m.FetchMisses != 1 || m.FetchHits != 0 || m.FetchErrors != 0 {
		t.Fatalf("exchange metrics: %+v", m)
	}
}

// ownedSeeds returns seeds whose analysis routing key is owned by
// owner from viewer's ring (all members live). Used to construct
// requests that a non-owner node must proxy.
func ownedSeeds(t *testing.T, viewer *testNode, owner string, n int) []uint64 {
	t.Helper()
	var seeds []uint64
	for s := uint64(1); s < 512 && len(seeds) < n; s++ {
		key, err := server.RoutingKey(cuisines.Options{Scale: testScale, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		owners := viewer.node.Owners(key)
		if len(owners) > 0 && owners[0] == owner {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) < n {
		t.Fatalf("found only %d/%d seeds owned by %s", len(seeds), n, owner)
	}
	return seeds
}

// TestClusterProxyAndDeadOwnerFallback: a non-owner proxies to the
// owner; when the owner dies the same request degrades to local
// compute — never to an error — and a health sweep then routes it
// locally without even attempting the proxy.
func TestClusterProxyAndDeadOwnerFallback(t *testing.T) {
	nodes := startCluster(t, 2, 1)
	a, b := nodes[0], nodes[1]
	ctx := context.Background()
	seeds := ownedSeeds(t, b, a.url, 3)
	path := func(seed uint64) string {
		return fmt.Sprintf("/v1/newick/fig5-authenticity?seed=%d", seed)
	}

	// Owner alive: B proxies, A computes, B's engine stays cold.
	code, viaB := getNode(t, b.url, path(seeds[0]), false)
	if code != 200 {
		t.Fatalf("proxied GET = %d\n%s", code, viaB)
	}
	if computed, _ := stageTotals(b.engine); computed != 0 {
		t.Fatalf("non-owner computed %d stages; should have proxied", computed)
	}
	if computed, _ := stageTotals(a.engine); computed == 0 {
		t.Fatal("owner did not compute the proxied request")
	}
	code, onA, hA := getNodeHdr(t, a.url, path(seeds[0]), true, nil)
	if code != 200 || !bytes.Equal(viaB, onA) {
		t.Fatalf("proxied body differs from owner's (code %d)", code)
	}

	// HTTP-caching passthrough: the proxy relays the owner's validator
	// and encoding untouched, so clients cache through any node.
	etag := hA.Get("ETag")
	if etag == "" {
		t.Fatal("owner response has no ETag")
	}
	_, _, hViaB := getNodeHdr(t, b.url, path(seeds[0]), false, nil)
	if hViaB.Get("ETag") != etag {
		t.Fatalf("proxied ETag %q != owner's %q", hViaB.Get("ETag"), etag)
	}
	if code, body, h := getNodeHdr(t, b.url, path(seeds[0]), false, map[string]string{"If-None-Match": etag}); code != http.StatusNotModified || len(body) != 0 || h.Get("ETag") != etag {
		t.Fatalf("conditional proxied GET = %d (%d bytes, ETag %q), want empty 304 with %q", code, len(body), h.Get("ETag"), etag)
	}
	code, gzBody, hGz := getNodeHdr(t, b.url, path(seeds[0]), false, map[string]string{"Accept-Encoding": "gzip"})
	if code != 200 || hGz.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip proxied GET = %d, Content-Encoding %q", code, hGz.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gzBody))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, onA) {
		t.Fatal("gzip proxied body does not decode to the owner's identity bytes")
	}

	const proxied, fallbacks = "cuisined_proxied_requests_total", "cuisined_proxy_fallbacks_total"
	if n := metricValue(t, b.url, proxied); n == 0 {
		t.Fatalf("%s not incremented", proxied)
	}

	// Kill the owner. The forward fails mid-request and B falls back to
	// computing locally: degraded, not broken.
	a.srv.Close()
	code, bodyFallback := getNode(t, b.url, path(seeds[1]), false)
	if code != 200 {
		t.Fatalf("dead-owner GET = %d\n%s", code, bodyFallback)
	}
	if computed, _ := stageTotals(b.engine); computed == 0 {
		t.Fatal("fallback did not compute locally")
	}
	if n := metricValue(t, b.url, fallbacks); n == 0 {
		t.Fatalf("%s not incremented", fallbacks)
	}
	proxiedBefore := metricValue(t, b.url, proxied)

	// After a health sweep the dead owner is off the ring: the next
	// request routes locally directly, no proxy attempt at all.
	b.node.CheckNow(ctx)
	for _, ps := range b.node.Peers() {
		if ps.URL == a.url && ps.Healthy {
			t.Fatal("dead owner still healthy after forced sweep")
		}
	}
	code, _ = getNode(t, b.url, path(seeds[2]), false)
	if code != 200 {
		t.Fatalf("post-sweep GET = %d", code)
	}
	if n := metricValue(t, b.url, proxied); n != proxiedBefore {
		t.Fatalf("request to a known-dead owner was still proxied (%v -> %v)", proxiedBefore, n)
	}
}
