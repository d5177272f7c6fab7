package cuisines

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"cuisines/internal/recipedb"
)

// This file defines the cuisined daemon's wire format — the response
// envelope for each /v1 endpoint — and a thin HTTP client for it. The
// server (internal/server) marshals these same types, so client and
// daemon can never disagree about field names. DESIGN.md §7 documents
// the API.

// ErrorResponse is the body of every non-2xx daemon response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
	// Cached counts analyses currently held (or in flight) by the
	// daemon's cache.
	Cached int `json:"cached"`
}

// TableResponse is the /v1/table body: the Table I reproduction.
type TableResponse struct {
	Rows []TableRow `json:"rows"`
}

// DendrogramResponse is the /v1/dendrogram/{figure} body.
type DendrogramResponse struct {
	Figure     string `json:"figure"`
	Dendrogram string `json:"dendrogram"`
}

// ClustersResponse is the /v1/clusters/{figure}?k= body.
type ClustersResponse struct {
	Figure   string     `json:"figure"`
	K        int        `json:"k"`
	Clusters [][]string `json:"clusters"`
}

// ClosestResponse is the /v1/closest/{figure}?region= body.
type ClosestResponse struct {
	Figure  string `json:"figure"`
	Region  string `json:"region"`
	Closest string `json:"closest"`
	// Distance is the cophenetic distance at which the two merge.
	Distance float64 `json:"distance"`
}

// PatternsResponse is the /v1/patterns/{region} body.
type PatternsResponse struct {
	Region   string        `json:"region"`
	Patterns []PatternInfo `json:"patterns"`
}

// RulesResponse is the /v1/rules/{region} body.
type RulesResponse struct {
	Region string            `json:"region"`
	Rules  []AssociationRule `json:"rules"`
}

// PairingsResponse is the /v1/pairings/{region} body: the cuisine's
// flavor-compound pairing statistic (Jain et al.'s ΔN_s framing)
// together with its ingredient-only association rules.
type PairingsResponse struct {
	Region  string            `json:"region"`
	Pairing FoodPairing       `json:"pairing"`
	Rules   []AssociationRule `json:"rules"`
}

// SubstitutesResponse is the /v1/substitutes/{region}?ingredient= body.
type SubstitutesResponse struct {
	Region      string       `json:"region"`
	Ingredient  string       `json:"ingredient"`
	Substitutes []Substitute `json:"substitutes"`
}

// MapResponse is the /v1/map body. Rendered is present only when the
// request asked for the ASCII rendering (width/height query params).
type MapResponse struct {
	Points            []MapPoint `json:"points"`
	VarianceExplained [2]float64 `json:"variance_explained"`
	Rendered          string     `json:"rendered,omitempty"`
}

// ClaimsResponse is the /v1/claims body: the Sec. VII claim checks and
// tree-vs-geography fits.
type ClaimsResponse struct {
	Claims  []ClaimResult  `json:"claims"`
	Fits    []GeographyFit `json:"fits"`
	AllHold bool           `json:"all_hold"`
}

// StatsResponse is the /v1/stats body: the Sec. III corpus statistics
// plus the name of the frequent-itemset miner, which is always "eclat".
type StatsResponse struct {
	recipedb.Stats
	Miner string `json:"miner"`
}

// ClusterPeer is one peer's liveness as seen by the answering node's
// health checker.
type ClusterPeer struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Failures is the current consecutive probe-failure count.
	Failures int    `json:"failures,omitempty"`
	LastErr  string `json:"last_err,omitempty"`
	// LastProbe is the RFC3339 time of the last completed probe.
	LastProbe string `json:"last_probe,omitempty"`
}

// ClusterResponse is the /v1/cluster body. Enabled false (the whole
// body zero) means the daemon runs single-node; otherwise it reports
// this node's identity, the static ring membership and per-peer
// health. The exchange and proxy counters are on /metrics.
type ClusterResponse struct {
	Enabled  bool          `json:"enabled"`
	Self     string        `json:"self,omitempty"`
	Members  []string      `json:"members,omitempty"`
	Replicas int           `json:"replicas,omitempty"`
	Peers    []ClusterPeer `json:"peers,omitempty"`
}

// Client is a thin client for the cuisined daemon: each method mirrors
// the Analysis accessor of the same name, evaluated daemon-side against
// a cached analysis.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8372".
	BaseURL string
	// BaseURLs are additional daemon replicas. Every request method is
	// an idempotent GET, so on a transport error or a 5xx the client
	// retries the next replica in order (BaseURL first, then BaseURLs)
	// until one answers. Client errors (4xx) and 429 backpressure are
	// returned as-is — every replica would say the same thing.
	BaseURLs []string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
	// Options selects which analysis the daemon answers from. Zero
	// fields fall back to the daemon's own defaults; Workers and Miner
	// are daemon-side concerns and are never transmitted.
	Options Options
	// Revalidate enables the client-side validator cache: successful
	// response bodies are remembered with their ETag, subsequent
	// requests for the same URL carry If-None-Match, and a 304 answer
	// is satisfied from the remembered body without re-transfer. The
	// cache is small (revalMaxEntries) and per-Client. Off by default:
	// callers that never repeat a URL would only pay the memory.
	Revalidate bool

	revalMu    sync.Mutex
	reval      map[string]revalEntry
	revalOrder []string // FIFO over cache keys; bounds the map
}

// revalEntry is one remembered response for conditional revalidation.
type revalEntry struct {
	etag string
	body []byte
}

// revalMaxEntries bounds the Revalidate cache. FIFO, not LRU: the cache
// exists to turn repeat fetches into 304s, and 128 distinct URLs covers
// every endpoint × figure × region combination a polling client cycles
// through.
const revalMaxEntries = 128

// revalGet returns the remembered validator and body for url, if any.
func (c *Client) revalGet(url string) (etag string, body []byte) {
	c.revalMu.Lock()
	defer c.revalMu.Unlock()
	e, ok := c.reval[url]
	if !ok {
		return "", nil
	}
	return e.etag, e.body
}

// revalPut remembers url's body under its validator, evicting the
// oldest entry once full.
func (c *Client) revalPut(url, etag string, body []byte) {
	c.revalMu.Lock()
	defer c.revalMu.Unlock()
	if c.reval == nil {
		c.reval = make(map[string]revalEntry)
	}
	if _, exists := c.reval[url]; !exists {
		c.revalOrder = append(c.revalOrder, url)
		for len(c.revalOrder) > revalMaxEntries {
			delete(c.reval, c.revalOrder[0])
			c.revalOrder = c.revalOrder[1:]
		}
	}
	c.reval[url] = revalEntry{etag: etag, body: body}
}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// NewClusterClient returns a Client that fails over across a fleet of
// cuisined replicas. The first URL is the preferred one; the rest are
// tried in order when it is unreachable or answering 5xx.
func NewClusterClient(baseURLs ...string) *Client {
	c := &Client{}
	if len(baseURLs) > 0 {
		c.BaseURL = baseURLs[0]
		c.BaseURLs = baseURLs[1:]
	}
	return c
}

// query encodes the client's non-zero analysis options plus any extra
// endpoint parameters.
func (c *Client) query(extra url.Values) url.Values {
	q := url.Values{}
	if c.Options.Seed != 0 {
		q.Set("seed", strconv.FormatUint(c.Options.Seed, 10))
	}
	if c.Options.Scale > 0 {
		q.Set("scale", strconv.FormatFloat(c.Options.Scale, 'g', -1, 64))
	}
	if c.Options.MinSupport > 0 {
		q.Set("support", strconv.FormatFloat(c.Options.MinSupport, 'g', -1, 64))
	}
	if c.Options.Linkage != "" {
		q.Set("linkage", c.Options.Linkage)
	}
	for k, vs := range extra {
		q[k] = vs
	}
	return q
}

// Response body caps. Every read goes through io.LimitReader so a
// misbehaving or hostile server cannot OOM the client: data bodies get
// a generous cap (a full-scale dendrogram JSON is a few MB; 64 MiB is
// far beyond any legitimate response), error bodies a small one (an
// ErrorResponse is one sentence). Package-level vars, not consts, so
// tests can shrink them.
var (
	maxResponseBytes  int64 = 64 << 20
	maxErrorBodyBytes int64 = 256 << 10
)

// statusError is an HTTP-level failure from one replica, carrying the
// status code so get can tell retryable server trouble (5xx) from
// definitive answers (4xx, 429).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// retryable reports whether another replica might answer differently:
// transport errors and 5xx yes; anything the server deliberately said
// (4xx, 429) no.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true // transport-level failure
}

// get performs one GET and decodes the response, failing over across
// replicas: each base URL is tried in order until one answers with
// something non-retryable. The common single-URL client degenerates to
// exactly the old behavior.
func (c *Client) get(ctx context.Context, path string, extra url.Values, out any) error {
	bases := make([]string, 0, 1+len(c.BaseURLs))
	if c.BaseURL != "" || len(c.BaseURLs) == 0 {
		bases = append(bases, c.BaseURL)
	}
	bases = append(bases, c.BaseURLs...)
	var lastErr error
	for _, base := range bases {
		err := c.getFrom(ctx, base, path, extra, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// getFrom performs one GET against one replica and decodes the
// response: 2xx bodies into out (raw bytes when out is *[]byte), error
// bodies into an error. Bodies beyond maxResponseBytes fail with a
// "response too large" error; oversized error bodies are truncated
// rather than rejected (the status line still carries the signal).
func (c *Client) getFrom(ctx context.Context, base, path string, extra url.Values, out any) error {
	u := base + path
	if q := c.query(extra); len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	// Negotiate gzip explicitly (rather than via the transport's
	// transparent mode) so the size cap below provably applies to the
	// decompressed bytes, whichever http.Client the caller supplied.
	req.Header.Set("Accept-Encoding", "gzip")
	var cachedETag string
	var cachedBody []byte
	if c.Revalidate {
		if cachedETag, cachedBody = c.revalGet(u); cachedETag != "" {
			req.Header.Set("If-None-Match", cachedETag)
		}
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// reader yields the response's identity bytes whatever the wire
	// encoding; every cap below bounds decompressed output, so a
	// hostile gzip bomb cannot expand past maxResponseBytes.
	var reader io.Reader = resp.Body
	if strings.Contains(strings.ToLower(resp.Header.Get("Content-Encoding")), "gzip") {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return fmt.Errorf("cuisines: bad gzip response on %s: %w", path, err)
		}
		defer zr.Close()
		reader = zr
	}
	if resp.StatusCode == http.StatusNotModified && cachedETag != "" {
		return decodeBody(cachedBody, out)
	}
	if resp.StatusCode != http.StatusOK {
		// Error bodies are tiny by construction; read a capped prefix
		// and never fail on an oversized one.
		body, err := io.ReadAll(io.LimitReader(reader, maxErrorBodyBytes))
		if err != nil {
			return err
		}
		var e ErrorResponse
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("cuisines: daemon %s: %s", resp.Status, e.Error)}
		}
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("cuisines: daemon %s on %s", resp.Status, path)}
	}
	// Read one byte past the cap so an exactly-at-cap body still
	// succeeds and an over-cap one is detected rather than silently
	// truncated into corrupt JSON.
	body, err := io.ReadAll(io.LimitReader(reader, maxResponseBytes+1))
	if err != nil {
		return err
	}
	if int64(len(body)) > maxResponseBytes {
		return fmt.Errorf("cuisines: response too large on %s (over %d bytes)", path, maxResponseBytes)
	}
	if c.Revalidate {
		if etag := resp.Header.Get("ETag"); etag != "" {
			c.revalPut(u, etag, body)
		}
	}
	return decodeBody(body, out)
}

// decodeBody delivers identity body bytes into out: verbatim for a
// *[]byte sink, JSON-decoded otherwise.
func decodeBody(body []byte, out any) error {
	if raw, ok := out.(*[]byte); ok {
		*raw = append([]byte(nil), body...)
		return nil
	}
	return json.Unmarshal(body, out)
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var h HealthResponse
	err := c.get(ctx, "/healthz", nil, &h)
	return h, err
}

// Cluster reports the answering node's cluster membership and peer
// health (/v1/cluster). Enabled false means single-node.
func (c *Client) Cluster(ctx context.Context) (ClusterResponse, error) {
	var s ClusterResponse
	err := c.get(ctx, "/v1/cluster", nil, &s)
	return s, err
}

// Table fetches the Table I reproduction.
func (c *Client) Table(ctx context.Context) ([]TableRow, error) {
	var t TableResponse
	if err := c.get(ctx, "/v1/table", nil, &t); err != nil {
		return nil, err
	}
	return t.Rows, nil
}

// Dendrogram fetches the figure's ASCII dendrogram.
func (c *Client) Dendrogram(ctx context.Context, f Figure) (string, error) {
	var d DendrogramResponse
	if err := c.get(ctx, "/v1/dendrogram/"+url.PathEscape(f.String()), nil, &d); err != nil {
		return "", err
	}
	return d.Dendrogram, nil
}

// Newick fetches the figure's Newick serialization. The daemon sends it
// as plain text, byte-identical to Analysis.Newick.
func (c *Client) Newick(ctx context.Context, f Figure) (string, error) {
	var raw []byte
	if err := c.get(ctx, "/v1/newick/"+url.PathEscape(f.String()), nil, &raw); err != nil {
		return "", err
	}
	return string(raw), nil
}

// Clusters cuts the figure's dendrogram into k clusters.
func (c *Client) Clusters(ctx context.Context, f Figure, k int) ([][]string, error) {
	var r ClustersResponse
	extra := url.Values{"k": {strconv.Itoa(k)}}
	if err := c.get(ctx, "/v1/clusters/"+url.PathEscape(f.String()), extra, &r); err != nil {
		return nil, err
	}
	return r.Clusters, nil
}

// ClosestCuisine returns the region merging earliest with the given one,
// plus their cophenetic distance.
func (c *Client) ClosestCuisine(ctx context.Context, f Figure, region string) (string, float64, error) {
	var r ClosestResponse
	extra := url.Values{"region": {region}}
	if err := c.get(ctx, "/v1/closest/"+url.PathEscape(f.String()), extra, &r); err != nil {
		return "", 0, err
	}
	return r.Closest, r.Distance, nil
}

// Fingerprint fetches the region's k most and least authentic
// ingredients.
func (c *Client) Fingerprint(ctx context.Context, region string, k int) (Fingerprint, error) {
	var fp Fingerprint
	extra := url.Values{"k": {strconv.Itoa(k)}}
	err := c.get(ctx, "/v1/fingerprint/"+url.PathEscape(region), extra, &fp)
	return fp, err
}

// CuisinePatterns fetches every frequent pattern mined for the region.
func (c *Client) CuisinePatterns(ctx context.Context, region string) ([]PatternInfo, error) {
	var r PatternsResponse
	if err := c.get(ctx, "/v1/patterns/"+url.PathEscape(region), nil, &r); err != nil {
		return nil, err
	}
	return r.Patterns, nil
}

// AssociationRules fetches the region's association rules. Zero
// minConfidence and maxRules use the daemon defaults.
func (c *Client) AssociationRules(ctx context.Context, region string, minConfidence float64, maxRules int) ([]AssociationRule, error) {
	var r RulesResponse
	extra := url.Values{}
	if minConfidence > 0 {
		extra.Set("min_confidence", strconv.FormatFloat(minConfidence, 'g', -1, 64))
	}
	if maxRules > 0 {
		extra.Set("max", strconv.Itoa(maxRules))
	}
	if err := c.get(ctx, "/v1/rules/"+url.PathEscape(region), extra, &r); err != nil {
		return nil, err
	}
	return r.Rules, nil
}

// Pairings fetches the region's food-pairing view: the flavor ΔN_s
// statistic and the ingredient-only rules.
func (c *Client) Pairings(ctx context.Context, region string) (PairingsResponse, error) {
	var r PairingsResponse
	err := c.get(ctx, "/v1/pairings/"+url.PathEscape(region), nil, &r)
	return r, err
}

// Substitutes fetches replacement candidates for an ingredient within a
// cuisine.
func (c *Client) Substitutes(ctx context.Context, region, ingredient string, k int) ([]Substitute, error) {
	var r SubstitutesResponse
	extra := url.Values{"ingredient": {ingredient}}
	if k > 0 {
		extra.Set("k", strconv.Itoa(k))
	}
	if err := c.get(ctx, "/v1/substitutes/"+url.PathEscape(region), extra, &r); err != nil {
		return nil, err
	}
	return r.Substitutes, nil
}

// CuisineMap fetches the 2-D cuisine map.
func (c *Client) CuisineMap(ctx context.Context) (MapResponse, error) {
	var r MapResponse
	err := c.get(ctx, "/v1/map", nil, &r)
	return r, err
}

// Claims fetches the Sec. VII claim checks and geography fits.
func (c *Client) Claims(ctx context.Context) (ClaimsResponse, error) {
	var r ClaimsResponse
	err := c.get(ctx, "/v1/claims", nil, &r)
	return r, err
}

// Stats fetches the Sec. III corpus statistics plus the miner's name.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var st StatsResponse
	err := c.get(ctx, "/v1/stats", nil, &st)
	return st, err
}
