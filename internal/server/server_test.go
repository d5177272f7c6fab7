package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cuisines"
)

// testScale keeps pipeline runs fast while preserving all 26 regions
// and every qualitative behaviour the endpoints expose.
const testScale = 0.02

// fixture shares one server (and thus one pipeline run) across the
// endpoint tests.
var (
	fixtureOnce sync.Once
	fixtureSrv  *Server
	fixtureRuns atomic.Int64
)

func testServer(t *testing.T) *Server {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureSrv = New(Config{
			Base: cuisines.Options{Scale: testScale},
			Runner: func(_ context.Context, o cuisines.Options) (*cuisines.Analysis, error) {
				fixtureRuns.Add(1)
				return cuisines.Run(o)
			},
		})
	})
	return fixtureSrv
}

// get performs one request against the handler without a network hop.
func get(t *testing.T, s *Server, path string) (int, []byte, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, body, rec.Result().Header
}

func decode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode %T: %v\nbody: %s", v, err, body)
	}
	return v
}

func TestEndpoints(t *testing.T) {
	s := testServer(t)
	region := url.PathEscape("Chinese and Mongolian")
	cases := []struct {
		name   string
		path   string
		status int
		check  func(t *testing.T, body []byte)
	}{
		{"health", "/healthz", 200, func(t *testing.T, b []byte) {
			h := decode[cuisines.HealthResponse](t, b)
			if h.Status != "ok" {
				t.Fatalf("health: %+v", h)
			}
		}},
		{"table", "/v1/table", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.TableResponse](t, b)
			if len(r.Rows) != 26 {
				t.Fatalf("table rows = %d", len(r.Rows))
			}
			for _, row := range r.Rows {
				if row.Recipes <= 0 || row.Patterns <= 0 || len(row.Top) == 0 {
					t.Fatalf("degenerate row %+v", row)
				}
			}
		}},
		{"dendrogram", "/v1/dendrogram/fig5-authenticity", 200, func(t *testing.T, b []byte) {
			d := decode[cuisines.DendrogramResponse](t, b)
			if d.Figure != "fig5-authenticity" || !strings.Contains(d.Dendrogram, "Japanese") {
				t.Fatalf("dendrogram: %+v", d)
			}
		}},
		{"dendrogram shorthand", "/v1/dendrogram/cosine", 200, nil},
		{"dendrogram unknown figure", "/v1/dendrogram/fig9", 404, checkError},
		{"newick", "/v1/newick/fig3-cosine", 200, func(t *testing.T, b []byte) {
			if !strings.HasSuffix(string(b), ";") || !strings.Contains(string(b), "Thai") {
				t.Fatalf("newick: %q", b)
			}
		}},
		{"newick unknown figure", "/v1/newick/nope", 404, checkError},
		{"clusters", "/v1/clusters/fig5-authenticity?k=5", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.ClustersResponse](t, b)
			total := 0
			for _, g := range r.Clusters {
				total += len(g)
			}
			if r.K != 5 || len(r.Clusters) != 5 || total != 26 {
				t.Fatalf("clusters: k=%d groups=%d total=%d", r.K, len(r.Clusters), total)
			}
		}},
		{"clusters missing k", "/v1/clusters/fig5-authenticity", 400, checkError},
		{"clusters bad k", "/v1/clusters/fig5-authenticity?k=zero", 400, checkError},
		{"clusters k out of range", "/v1/clusters/fig5-authenticity?k=999", 400, checkError},
		{"closest", "/v1/closest/fig6-geographic?region=UK", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.ClosestResponse](t, b)
			if r.Closest != "Irish" || r.Distance <= 0 {
				t.Fatalf("closest: %+v", r)
			}
		}},
		{"closest missing region", "/v1/closest/fig6-geographic", 400, checkError},
		{"closest unknown region", "/v1/closest/fig6-geographic?region=Narnia", 404, checkError},
		{"fingerprint", "/v1/fingerprint/Japanese?k=5", 200, func(t *testing.T, b []byte) {
			fp := decode[cuisines.Fingerprint](t, b)
			if fp.Region != "Japanese" || len(fp.Most) != 5 || len(fp.Least) != 5 {
				t.Fatalf("fingerprint: %+v", fp)
			}
		}},
		{"fingerprint unknown region", "/v1/fingerprint/Narnia", 404, checkError},
		{"fingerprint bad k", "/v1/fingerprint/Japanese?k=-1", 400, checkError},
		{"patterns", "/v1/patterns/Japanese", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.PatternsResponse](t, b)
			if len(r.Patterns) < 10 {
				t.Fatalf("patterns = %d", len(r.Patterns))
			}
		}},
		{"patterns unknown region", "/v1/patterns/Narnia", 404, checkError},
		{"rules", "/v1/rules/Japanese?min_confidence=0.6&max=20", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.RulesResponse](t, b)
			if len(r.Rules) == 0 || len(r.Rules) > 20 {
				t.Fatalf("rules = %d", len(r.Rules))
			}
			for _, rule := range r.Rules {
				if rule.Confidence < 0.6 {
					t.Fatalf("rule below confidence floor: %+v", rule)
				}
			}
		}},
		{"rules bad confidence", "/v1/rules/Japanese?min_confidence=2", 400, checkError},
		{"pairings", "/v1/pairings/" + region, 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.PairingsResponse](t, b)
			if r.Pairing.Region != "Chinese and Mongolian" {
				t.Fatalf("pairings: %+v", r.Pairing)
			}
			for _, rule := range r.Rules {
				for _, item := range append(rule.Antecedent, rule.Consequent...) {
					if item == "add" || item == "heat" {
						t.Fatalf("process item in ingredient pairing: %+v", rule)
					}
				}
			}
		}},
		{"substitutes", "/v1/substitutes/" + region + "?ingredient=ginger&k=5", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.SubstitutesResponse](t, b)
			if len(r.Substitutes) == 0 || len(r.Substitutes) > 5 {
				t.Fatalf("substitutes = %d", len(r.Substitutes))
			}
		}},
		{"substitutes missing ingredient", "/v1/substitutes/" + region, 400, checkError},
		{"substitutes unknown ingredient", "/v1/substitutes/Japanese?ingredient=unobtainium", 404, checkError},
		{"map", "/v1/map", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.MapResponse](t, b)
			if len(r.Points) != 26 || r.VarianceExplained[0] <= 0 || r.Rendered != "" {
				t.Fatalf("map: points=%d variance=%v rendered=%q", len(r.Points), r.VarianceExplained, r.Rendered)
			}
		}},
		{"map rendered", "/v1/map?width=40&height=12", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.MapResponse](t, b)
			if !strings.Contains(r.Rendered, "Legend") {
				t.Fatalf("map rendered: %q", r.Rendered)
			}
		}},
		{"map bad width", "/v1/map?width=x", 400, checkError},
		{"claims", "/v1/claims", 200, func(t *testing.T, b []byte) {
			r := decode[cuisines.ClaimsResponse](t, b)
			if len(r.Claims) != 8 || len(r.Fits) != 4 {
				t.Fatalf("claims=%d fits=%d", len(r.Claims), len(r.Fits))
			}
		}},
		{"stats", "/v1/stats", 200, func(t *testing.T, b []byte) {
			var st struct {
				Recipes int    `json:"recipes"`
				Regions int    `json:"regions"`
				Miner   string `json:"miner"`
			}
			if err := json.Unmarshal(b, &st); err != nil {
				t.Fatal(err)
			}
			if st.Regions != 26 || st.Recipes <= 0 {
				t.Fatalf("stats: %+v", st)
			}
			if st.Miner != "eclat" {
				t.Fatalf("stats echoed miner %q, want %q", st.Miner, "eclat")
			}
		}},
		{"bad scale", "/v1/table?scale=banana", 400, checkError},
		{"scale above cap", "/v1/table?scale=100000", 400, checkError},
		{"negative scale", "/v1/table?scale=-1", 400, checkError},
		{"bad seed", "/v1/table?seed=-3", 400, checkError},
		{"bad support", "/v1/table?support=1.5", 400, checkError},
		{"unknown linkage", "/v1/table?linkage=centroid", 400, checkError},
		{"unknown path", "/v1/nope", 404, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := get(t, s, tc.path)
			if status != tc.status {
				t.Fatalf("GET %s = %d, want %d\nbody: %s", tc.path, status, tc.status, body)
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// checkError asserts the error-JSON contract on non-2xx responses.
func checkError(t *testing.T, body []byte) {
	t.Helper()
	var e cuisines.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q (%v)", body, err)
	}
}

// TestBadFigureSkipsPipeline pins the validation order: an invalid
// {figure} must 404 before the cache resolves the analysis, even when
// the query names a cold cache key.
func TestBadFigureSkipsPipeline(t *testing.T) {
	s := New(Config{
		Base: cuisines.Options{Scale: testScale},
		Runner: func(context.Context, cuisines.Options) (*cuisines.Analysis, error) {
			t.Error("pipeline run triggered for an invalid figure")
			return nil, nil
		},
	})
	for _, path := range []string{
		"/v1/newick/bogus?support=0.9",
		"/v1/dendrogram/fig9",
		"/v1/clusters/nope?k=3",
		"/v1/closest/fig7?region=UK",
	} {
		status, body, _ := get(t, s, path)
		if status != 404 {
			t.Fatalf("GET %s = %d, want 404\nbody: %s", path, status, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/table", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/table = %d", rec.Code)
	}
}

// TestFixtureSingleRun closes out the endpoint suite: every request
// above, across every figure and region, must have been served from the
// one cached analysis (plus nothing for the 4xx requests, which fail
// before or after the cache, never inside the pipeline).
func TestFixtureSingleRun(t *testing.T) {
	testServer(t)
	if n := fixtureRuns.Load(); n > 1 {
		t.Fatalf("endpoint suite triggered %d pipeline runs, want at most 1", n)
	}
}

// TestConcurrentRequestsDeduplicated is the acceptance concurrency
// test: N parallel identical requests must trigger exactly one pipeline
// run, with every response byte-identical.
func TestConcurrentRequestsDeduplicated(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{
		Base: cuisines.Options{Scale: testScale},
		Runner: func(_ context.Context, o cuisines.Options) (*cuisines.Analysis, error) {
			runs.Add(1)
			return cuisines.Run(o)
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 16
	bodies := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/v1/newick/fig5-authenticity")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d body differs:\n%q\n%q", i, bodies[i], bodies[0])
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests caused %d pipeline runs, want exactly 1", n, got)
	}

	// A second wave is pure cache hits.
	if _, err := http.Get(ts.URL + "/v1/table"); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cache hit reran the pipeline (%d runs)", got)
	}

	// A different option set is a different key.
	resp, err := http.Get(ts.URL + "/v1/stats?support=0.3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := runs.Load(); got != 2 {
		t.Fatalf("distinct options should rerun the pipeline once (got %d runs)", got)
	}

	// Option aliases canonicalize onto the existing key.
	resp, err = http.Get(ts.URL + "/v1/stats?linkage=upgma")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := runs.Load(); got != 2 {
		t.Fatalf("upgma alias missed the average-linkage cache entry (%d runs)", got)
	}

	// A leftover miner= parameter is ignored: Eclat is the only miner,
	// so the request shares the existing analysis.
	resp, err = http.Get(ts.URL + "/v1/stats?miner=apriori")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := runs.Load(); got != 2 {
		t.Fatalf("miner parameter split the analysis cache key (%d runs)", got)
	}
}
