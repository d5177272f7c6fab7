package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"cuisines"
	"cuisines/internal/pipeline"
)

// metrics is the server's hand-rolled metric registry. It keeps exactly
// the HTTP series /metrics exposes — per-endpoint request/error
// counters, a latency histogram, and an in-flight gauge — behind one
// mutex. Hand-rolled because the repo takes no dependencies: the text
// format is three line shapes (# HELP, # TYPE, sample), which family
// and sample below cover.
type metrics struct {
	mu       sync.Mutex
	requests map[string]map[int]uint64 // endpoint → status code → count
	errors   map[string]uint64         // endpoint → 5xx count
	inflight map[string]int64          // endpoint → current requests
	latency  map[string]*histogram     // endpoint → seconds histogram
}

// latencyBuckets are the histogram upper bounds in seconds. The range
// spans cache hits (sub-millisecond JSON encoding) through cold full
// pipeline runs (seconds), roughly 2.5x apart.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket cumulative histogram in the Prometheus
// sense: counts[i] is the number of observations <= buckets[i], and the
// rendered +Inf bucket equals count.
type histogram struct {
	counts []uint64
	sum    float64
	count  uint64
}

func (h *histogram) observe(v float64) {
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[int]uint64),
		errors:   make(map[string]uint64),
		inflight: make(map[string]int64),
		latency:  make(map[string]*histogram),
	}
}

// incInflight / decInflight bracket a request's handler execution.
func (m *metrics) incInflight(endpoint string) {
	m.mu.Lock()
	m.inflight[endpoint]++
	m.mu.Unlock()
}

func (m *metrics) decInflight(endpoint string) {
	m.mu.Lock()
	m.inflight[endpoint]--
	m.mu.Unlock()
}

// observe records one completed request: its final status code and
// wall-clock duration in seconds.
func (m *metrics) observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[endpoint] = byCode
	}
	byCode[code]++
	if code >= 500 {
		m.errors[endpoint]++
	}
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		m.latency[endpoint] = h
	}
	h.observe(seconds)
}

// family is one metric family of the Prometheus text exposition: a
// HELP line, a TYPE line, then its samples in order. A sample is one
// series line: the family name plus suffix (a histogram's _bucket,
// _sum and _count), a rendered label set, and the value.
type family struct {
	name, typ, help string
	samples         []sample
}

type sample struct{ suffix, labels, value string }

func (f family) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	for _, s := range f.samples {
		fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value)
	}
}

func counter(name, help string, s ...sample) family { return family{name, "counter", help, s} }

func gauge(name, help string, s ...sample) family { return family{name, "gauge", help, s} }

// val is a sample with an integer or float value and label pairs
// (name, value, name, value, ...); label values are Go-quoted.
func val(v any, kv ...string) sample {
	s := sample{value: fmt.Sprint(v)}
	if f, ok := v.(float64); ok {
		s.value = formatFloat(f)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		s.labels += "," + kv[i] + "=" + strconv.Quote(kv[i+1])
	}
	if s.labels != "" {
		s.labels = "{" + s.labels[1:] + "}"
	}
	return s
}

// cacheEvents is the event-labelled traffic of a cache.
func cacheEvents(hit, miss, eviction, inflightJoin uint64) []sample {
	return []sample{
		val(hit, "event", "hit"),
		val(miss, "event", "miss"),
		val(eviction, "event", "eviction"),
		val(inflightJoin, "event", "inflight_join"),
	}
}

// families snapshots every HTTP series. Series are emitted in sorted
// label order so successive scrapes diff cleanly.
func (m *metrics) families() []family {
	m.mu.Lock()
	defer m.mu.Unlock()

	requests := counter("cuisined_http_requests_total", "Requests served, by endpoint pattern and status code.")
	for _, ep := range sortedKeys(m.requests) {
		byCode := m.requests[ep]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			requests.samples = append(requests.samples, val(byCode[c], "endpoint", ep, "code", strconv.Itoa(c)))
		}
	}
	errors := counter("cuisined_http_request_errors_total", "Requests answered with a 5xx status, by endpoint pattern.")
	for _, ep := range sortedKeys(m.errors) {
		errors.samples = append(errors.samples, val(m.errors[ep], "endpoint", ep))
	}
	inflight := gauge("cuisined_http_requests_inflight", "Requests currently being handled, by endpoint pattern.")
	for _, ep := range sortedKeys(m.inflight) {
		inflight.samples = append(inflight.samples, val(m.inflight[ep], "endpoint", ep))
	}
	latency := family{name: "cuisined_http_request_duration_seconds", typ: "histogram", help: "Request latency, by endpoint pattern."}
	for _, ep := range sortedKeys(m.latency) {
		h := m.latency[ep]
		for i, ub := range latencyBuckets {
			latency.samples = append(latency.samples, withSuffix("_bucket", val(h.counts[i], "endpoint", ep, "le", formatFloat(ub))))
		}
		latency.samples = append(latency.samples,
			withSuffix("_bucket", val(h.count, "endpoint", ep, "le", "+Inf")),
			withSuffix("_sum", val(h.sum, "endpoint", ep)),
			withSuffix("_count", val(h.count, "endpoint", ep)))
	}
	return []family{requests, errors, inflight, latency}
}

func withSuffix(suffix string, s sample) sample {
	s.suffix = suffix
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatFloat renders a float the way Prometheus clients do: shortest
// form that round-trips.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// WriteMetrics writes the full Prometheus text exposition — the body
// of /metrics — to w: HTTP series plus the analysis-cache,
// render-cache, per-stage artifact-cache, admission and cluster series
// the daemon tracks internally. It is the daemon's one counter
// surface; cuisined also logs it at shutdown.
func (s *Server) WriteMetrics(w io.Writer) {
	cs := s.cache.Stats()
	rs := s.renders.Stats()
	fams := append(s.met.families(),
		gauge("cuisined_analysis_cache_entries", "Analyses currently cached or in flight.", val(cs.Size)),
		gauge("cuisined_analysis_cache_capacity", "Configured analysis cache capacity.", val(cs.Capacity)),
		counter("cuisined_analysis_cache_events_total", "Analysis cache traffic, by event.",
			cacheEvents(cs.Hits, cs.Misses, cs.Evictions, cs.InFlightJoins)...),
		gauge("cuisined_render_cache_entries", "Rendered responses currently cached.", val(rs.Entries)),
		gauge("cuisined_render_cache_bytes", "Bytes held by the render cache (bodies plus gzip variants).", val(rs.Bytes)),
		gauge("cuisined_render_cache_capacity_bytes", "Configured render cache byte budget.", val(rs.MaxBytes)),
		counter("cuisined_render_cache_events_total", "Render cache traffic, by event.",
			cacheEvents(rs.Hits, rs.Misses, rs.Evictions, rs.InFlightJoins)...),
		counter("cuisined_render_cache_gzip_variants_total", "Gzip variants built (once per entry worth compressing).", val(rs.GzipVariants)),
		counter("cuisined_http_not_modified_total", "Conditional requests answered 304 Not Modified.", val(s.notModified.Load())),
		counter("cuisined_http_body_bytes_total", "Response body bytes written from the render cache, by encoding.",
			val(s.bytesIdentity.Load(), "encoding", "identity"),
			val(s.bytesGzip.Load(), "encoding", "gzip")),
	)

	if s.engine != nil {
		stages := s.engine.CacheStats()
		// Every stage kind gets its series, so one this process never
		// touched reads 0 instead of going missing: a warm restart
		// serving /v1/table shows the corpus at 0 disk hits.
		for kind := range pipeline.Codecs() {
			if _, ok := stages[kind]; !ok {
				stages[kind] = cuisines.StageCacheStats{}
			}
		}
		f := counter("cuisined_stage_cache_events_total", "Per-stage artifact cache traffic, by stage and event.")
		for _, kind := range sortedKeys(stages) {
			st := stages[kind]
			f.samples = append(f.samples,
				val(st.Hits, "stage", kind, "event", "hit"),
				val(st.DiskHits, "stage", kind, "event", "disk_hit"),
				val(st.DiskRejects, "stage", kind, "event", "disk_reject"),
				val(st.PeerHits, "stage", kind, "event", "peer_hit"),
				val(st.PeerRejects, "stage", kind, "event", "peer_reject"),
				val(st.Computed, "stage", kind, "event", "computed"),
				val(st.Evictions, "stage", kind, "event", "eviction"),
				val(st.InFlightJoins, "stage", kind, "event", "inflight_join"),
				val(st.DiskWriteErrors, "stage", kind, "event", "disk_write_error"))
		}
		fams = append(fams, f)
	}

	if s.gate != nil {
		gs := s.gate.Stats()
		fams = append(fams,
			gauge("cuisined_admission_slots", "Configured concurrent pipeline-run limit.", val(gs.Slots)),
			gauge("cuisined_admission_active", "Pipeline runs currently admitted.", val(gs.Active)),
			gauge("cuisined_admission_queue_capacity", "Configured admission queue depth.", val(gs.QueueCap)),
			gauge("cuisined_admission_queued", "Requests currently waiting for a pipeline slot.", val(gs.Queued)),
			counter("cuisined_admission_rejected_total", "Requests rejected with 429 because the queue was full.", val(gs.Rejected)),
		)
	}

	fams = append(fams, s.clusterFamilies()...)
	for _, f := range fams {
		f.write(w)
	}
}
