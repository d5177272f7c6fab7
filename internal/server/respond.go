package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"cuisines"
)

// This file is the serving fast path (DESIGN.md §14): every cacheable
// /v1 GET funnels through resource.serveJSON / serveBytes, which
// memoize the derive+marshal work in the rendered-response cache and
// speak full HTTP caching semantics — strong ETags, If-None-Match →
// 304, Vary: Accept-Encoding, and once-per-entry gzip. A warm request
// costs one cache lookup and one Write.

// CacheControl is sent with every cacheable /v1 response: clients and
// intermediaries may store bodies but must revalidate before reuse.
// Revalidation is nearly free here (a 304 carries no body), and
// no-cache keeps the daemon in charge when a future corpus epoch
// changes what a key serves (ROADMAP: streaming corpus).
const CacheControl = "public, no-cache"

// resource is an endpoint request with its analysis resolved: the
// handler derives response values from a, and serve* memoizes the
// rendered bytes under the analysis cache key (owner), so eviction of
// the analysis drops its renders too.
type resource struct {
	s      *Server
	a      *cuisines.Analysis
	owner  string           // stable string form of the analysis cache key
	canon  cuisines.Options // full canonical options (stats echoes Miner)
	pretty bool             // ?pretty=1: human-readable, bypasses the cache
}

// httpError carries a response status through a render build closure.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// failWith wraps err so serve* answers it with the given status
// instead of the default 500.
func failWith(status int, err error) error { return &httpError{status: status, err: err} }

// writeBuildError maps a render-build failure onto a response: an
// explicit status if the closure attached one, 503 for a waiter whose
// context expired mid-build, 500 otherwise.
func (s *Server) writeBuildError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		writeError(w, he.status, he.err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// serveJSON renders v = build() as compact JSON through the render
// cache. ?pretty=1 bypasses the cache entirely and indents for humans.
func (rc *resource) serveJSON(w http.ResponseWriter, r *http.Request, build func() (any, error)) {
	if rc.pretty {
		v, err := build()
		if err != nil {
			rc.s.writeBuildError(w, err)
			return
		}
		writeJSONIndent(w, http.StatusOK, v)
		return
	}
	rc.serveBytes(w, r, "application/json; charset=utf-8", func() ([]byte, error) {
		v, err := build()
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encoding %T: %w", v, err)
		}
		return append(b, '\n'), nil
	})
}

// serveBytes is the cached byte path shared by JSON and plain-text
// endpoints: single-flighted render, strong ETag, conditional 304,
// negotiated once-per-entry gzip.
func (rc *resource) serveBytes(w http.ResponseWriter, r *http.Request, contentType string, build func() ([]byte, error)) {
	key := rc.owner + "|" + r.URL.EscapedPath() + "|" + canonicalQuery(r.URL.Query())
	e, err := rc.s.renders.Get(r.Context(), rc.owner, key, build)
	if err != nil {
		rc.s.writeBuildError(w, err)
		return
	}
	h := w.Header()
	h.Set("ETag", e.ETag())
	h.Set("Cache-Control", CacheControl)
	h.Set("Vary", "Accept-Encoding")
	if etagMatch(r.Header.Get("If-None-Match"), e.ETag()) {
		rc.s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := e.Body()
	h.Set("Content-Type", contentType)
	if acceptsGzip(r) {
		if gz := e.Gzip(); gz != nil {
			h.Set("Content-Encoding", "gzip")
			body = gz
		}
	}
	if len(body) < len(e.Body()) {
		rc.s.bytesGzip.Add(uint64(len(body)))
	} else {
		rc.s.bytesIdentity.Add(uint64(len(body)))
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// renderKeyDrop lists query parameters that must not fragment render
// keys: the analysis options are already captured by the owner (the
// analysis cache key), miner is ignored (Eclat is the only miner, but
// URLs that still carry miner= share entries with those that do not),
// and pretty bypasses the cache entirely.
var renderKeyDrop = map[string]bool{
	"seed": true, "scale": true, "support": true, "linkage": true,
	"miner": true, "pretty": true,
}

// canonicalQuery renders the content-bearing query parameters in a
// canonical order, so ?a=1&b=2 and ?b=2&a=1 share one render entry.
func canonicalQuery(q url.Values) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		if !renderKeyDrop[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		vs := q[k]
		if len(vs) > 1 {
			vs = append([]string(nil), vs...)
			sort.Strings(vs)
		}
		for _, v := range vs {
			b.WriteByte('&')
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(v))
		}
	}
	return b.String()
}

// etagMatch implements If-None-Match per RFC 7232 §3.2: weak
// comparison (a W/ prefix on either side is ignored), a comma-joined
// candidate list, and "*" matching any current representation.
func etagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" || strings.TrimPrefix(tok, "W/") == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request negotiates gzip (RFC 9110
// §12.5.3): a gzip (or x-gzip) member of Accept-Encoding decides by its
// q-value; only when gzip is not listed does a * member decide. A
// q-value of zero means "not acceptable"; codings and parameter names
// are case-insensitive.
func acceptsGzip(r *http.Request) bool {
	gzipQ, anyQ := -1.0, -1.0 // -1: not listed
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(part, ";")
		switch strings.ToLower(strings.TrimSpace(coding)) {
		case "gzip", "x-gzip":
			gzipQ = max(gzipQ, qValue(params))
		case "*":
			anyQ = max(anyQ, qValue(params))
		}
	}
	if gzipQ >= 0 {
		return gzipQ > 0
	}
	return anyQ > 0
}

// qValue returns the weight in an Accept-Encoding member's parameters
// ("q=0.5", "Q=0"). A missing or unparsable weight counts as 1.
func qValue(params string) float64 {
	for _, p := range strings.Split(params, ";") {
		name, v, ok := strings.Cut(p, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(name), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 1
		}
		return q
	}
	return 1
}

// isPretty reports the ?pretty=1 opt-in.
func isPretty(r *http.Request) bool {
	switch r.URL.Query().Get("pretty") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// keyString renders an analysis cache key to the stable string form
// shared by render-entry owners and the cluster routing key.
func keyString(key cuisines.Options) string { return fmt.Sprintf("%+v", key) }
