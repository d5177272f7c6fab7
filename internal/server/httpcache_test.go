package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cuisines"
)

// getWith performs one request with extra headers against the handler.
func getWith(t *testing.T, s *Server, path string, headers map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, body, rec.Result().Header
}

func TestETagAndNotModified(t *testing.T) {
	s := testServer(t)
	code, body, h := get(t, s, "/v1/table")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	etag := h.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) || len(etag) != 66 {
		t.Fatalf("ETag %q, want quoted sha256 hex", etag)
	}
	if cc := h.Get("Cache-Control"); cc != CacheControl {
		t.Fatalf("Cache-Control %q", cc)
	}
	if v := h.Get("Vary"); v != "Accept-Encoding" {
		t.Fatalf("Vary %q", v)
	}

	before := s.notModified.Load()
	code2, body2, h2 := getWith(t, s, "/v1/table", map[string]string{"If-None-Match": etag})
	if code2 != http.StatusNotModified {
		t.Fatalf("conditional status %d, want 304", code2)
	}
	if len(body2) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(body2))
	}
	if h2.Get("ETag") != etag {
		t.Fatalf("304 ETag %q != %q", h2.Get("ETag"), etag)
	}
	if got := s.notModified.Load(); got != before+1 {
		t.Fatalf("notModified counter %d, want %d", got, before+1)
	}

	// Weak comparison: a W/ prefix and a multi-candidate list match too.
	for _, inm := range []string{"W/" + etag, `"miss", ` + etag, "*"} {
		if code, _, _ := getWith(t, s, "/v1/table", map[string]string{"If-None-Match": inm}); code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, code)
		}
	}
	if code, _, _ := getWith(t, s, "/v1/table", map[string]string{"If-None-Match": `"nope"`}); code != 200 {
		t.Fatalf("non-matching validator answered %d, want 200", code)
	}

	// A fresh request still gets the identical bytes (the cache serves).
	if _, again, _ := get(t, s, "/v1/table"); !bytes.Equal(again, body) {
		t.Fatal("repeat fetch returned different bytes")
	}
}

func TestGzipDecodesIdenticalToIdentity(t *testing.T) {
	s := testServer(t)
	_, identity, _ := get(t, s, "/v1/table")
	code, gzBody, h := getWith(t, s, "/v1/table", map[string]string{"Accept-Encoding": "gzip"})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if ce := h.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", ce)
	}
	if len(gzBody) >= len(identity) {
		t.Fatalf("gzip body (%d) not smaller than identity (%d)", len(gzBody), len(identity))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gzBody))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, identity) {
		t.Fatal("gzip body does not decode to the identity bytes")
	}
	// One ETag covers both encodings (validates content, not coding).
	_, _, hid := get(t, s, "/v1/table")
	if h.Get("ETag") != hid.Get("ETag") {
		t.Fatalf("gzip ETag %q != identity ETag %q", h.Get("ETag"), hid.Get("ETag"))
	}
	// q=0 declines gzip.
	if _, body, h := getWith(t, s, "/v1/table", map[string]string{"Accept-Encoding": "gzip;q=0"}); h.Get("Content-Encoding") != "" || !bytes.Equal(body, identity) {
		t.Fatal("gzip;q=0 still got a compressed body")
	}
}

// TestAcceptsGzip pins Accept-Encoding negotiation to RFC 9110
// §12.5.3: an explicit gzip member decides by its own q-value, * only
// covers codings the header does not list, and parameter names are
// case-insensitive.
func TestAcceptsGzip(t *testing.T) {
	for header, want := range map[string]bool{
		"":                      false,
		"identity":              false,
		"deflate, br":           false,
		"gzip":                  true,
		"GZip":                  true,
		"x-gzip":                true,
		"gzip, deflate, br":     true,
		"*":                     true,
		"gzip;q=0":              false,
		"gzip; q=0.000":         false,
		"gzip;q=0.001":          true,
		"gzip;q=1.0":            true,
		"gzip;Q=0":              false,
		"gzip;q=0, *":           false,
		"*, gzip;q=0":           false,
		"*;q=0":                 false,
		"*;q=0, gzip":           true,
		"deflate, *;q=0.5":      true,
		"br;q=1, gzip;q=0, *;q": false,
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/table", nil)
		if header != "" {
			r.Header.Set("Accept-Encoding", header)
		}
		if got := acceptsGzip(r); got != want {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", header, got, want)
		}
	}
}

func TestCompactAndPrettyParseIdentical(t *testing.T) {
	s := testServer(t)
	_, compact, _ := get(t, s, "/v1/table")
	_, pretty, _ := get(t, s, "/v1/table?pretty=1")
	if bytes.Contains(compact, []byte("\n  ")) {
		t.Fatal("default body is indented; want compact")
	}
	if !bytes.Contains(pretty, []byte("\n  ")) {
		t.Fatal("?pretty=1 body is not indented")
	}
	var c, p any
	if err := json.Unmarshal(compact, &c); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pretty, &p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, p) {
		t.Fatal("compact and pretty bodies parse to different values")
	}
	// Error bodies stay compact even with ?pretty=1 in play.
	code, errBody, _ := get(t, s, "/v1/clusters/fig5-authenticity?k=zero")
	if code != 400 || bytes.Contains(errBody, []byte("\n  ")) {
		t.Fatalf("error body not compact (status %d): %q", code, errBody)
	}
}

func TestPrettyBypassesRenderCache(t *testing.T) {
	s := testServer(t)
	get(t, s, "/v1/claims") // ensure the compact entry exists
	before := s.renders.Stats()
	get(t, s, "/v1/claims?pretty=1")
	after := s.renders.Stats()
	if after.Misses != before.Misses || after.Entries != before.Entries {
		t.Fatalf("pretty request touched the render cache: %+v -> %+v", before, after)
	}
}

// TestStatsIgnoresMinerParam pins that URLs written when miner= chose
// a backend still work: the parameter is ignored, the echo names the
// one miner, and the response is the cached /v1/stats entry itself.
func TestStatsIgnoresMinerParam(t *testing.T) {
	s := testServer(t)
	code, plain, h := get(t, s, "/v1/stats")
	if code != 200 {
		t.Fatalf("/v1/stats = %d", code)
	}
	misses := s.renders.Stats().Misses
	for _, m := range []string{"apriori", "fpgrowth", "eclat", "bogus"} {
		code, b, hm := get(t, s, "/v1/stats?miner="+m)
		if code != 200 || !bytes.Equal(b, plain) || hm.Get("ETag") != h.Get("ETag") {
			t.Fatalf("miner=%s: status %d, body or ETag differs from /v1/stats", m, code)
		}
	}
	if got := s.renders.Stats().Misses; got != misses {
		t.Fatalf("miner= requests rendered %d new entries, want 0", got-misses)
	}
	var st cuisines.StatsResponse
	if err := json.Unmarshal(plain, &st); err != nil {
		t.Fatal(err)
	}
	if st.Miner != "eclat" {
		t.Fatalf("stats echoed miner %q, want %q", st.Miner, "eclat")
	}
}

func TestRenderEntriesEvictedWithAnalysis(t *testing.T) {
	s := New(Config{
		Base:      cuisines.Options{Scale: testScale},
		CacheSize: 1,
		Runner: func(_ context.Context, o cuisines.Options) (*cuisines.Analysis, error) {
			return cuisines.Run(o)
		},
	})
	if code, _, _ := get(t, s, "/v1/claims"); code != 200 {
		t.Fatal("first analysis failed")
	}
	if st := s.renders.Stats(); st.Entries != 1 {
		t.Fatalf("render entries = %d, want 1", st.Entries)
	}
	// A different seed is a different analysis key; CacheSize 1 means
	// inserting it evicts the first analysis — and must drop its renders.
	if code, _, _ := get(t, s, "/v1/claims?seed=99"); code != 200 {
		t.Fatal("second analysis failed")
	}
	st := s.renders.Stats()
	if st.Entries != 1 || st.Evictions < 1 {
		t.Fatalf("render cache after analysis eviction: %+v (want first owner's entry dropped)", st)
	}
}

// TestConcurrentRevalidation hammers one entry with a mix of plain,
// conditional and gzip requests under -race: every answer must be
// either the full identical body or a clean 304.
func TestConcurrentRevalidation(t *testing.T) {
	s := testServer(t)
	_, want, h := get(t, s, "/v1/table")
	etag := h.Get("ETag")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (g + i) % 3 {
				case 0:
					code, body, _ := get(t, s, "/v1/table")
					if code != 200 || !bytes.Equal(body, want) {
						t.Errorf("plain: code=%d bytes=%d", code, len(body))
						return
					}
				case 1:
					code, body, _ := getWith(t, s, "/v1/table", map[string]string{"If-None-Match": etag})
					if code != http.StatusNotModified || len(body) != 0 {
						t.Errorf("conditional: code=%d bytes=%d", code, len(body))
						return
					}
				case 2:
					code, body, _ := getWith(t, s, "/v1/table", map[string]string{"Accept-Encoding": "gzip"})
					if code != 200 {
						t.Errorf("gzip: code=%d", code)
						return
					}
					zr, err := gzip.NewReader(bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					dec, err := io.ReadAll(zr)
					if err != nil || !bytes.Equal(dec, want) {
						t.Errorf("gzip decode mismatch: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCacheStatsReportsRenders(t *testing.T) {
	s := testServer(t)
	get(t, s, "/v1/table")
	_, body, _ := get(t, s, "/v1/cachestats")
	st := decode[cuisines.CacheStatsResponse](t, body)
	if st.Renders.Entries < 1 || st.Renders.CapacityBytes <= 0 {
		t.Fatalf("cachestats renders: %+v", st.Renders)
	}
}
