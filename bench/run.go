package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// bench is one invocation's shared state.
type bench struct {
	launch  launcher
	hc      *http.Client
	clk     clock
	tr      *tracer // nil = untraced
	seed    uint64
	part    time.Duration // the window's share measured after each set-up
	seq     int64         // requests sent so far in the run, numbering them
	workers int           // sending goroutines and keep-alive connections: nproc
	tmp     string        // scratch root for cache directories
	log     io.Writer
	check   *checker // the current workload's response checker
}

// outcome is one workload run's result.
type outcome struct {
	workload  string
	attempted int
	failed    int
	failures  []string // the first few failure messages
	invalid   string   // why the generator run is invalid; "" = valid
	e2e       map[string]float64
	layer     map[string]float64
}

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, msg)
	}
}

// runWorkload sets w up setupReps times and measures a third of the
// window right after each set-up, so a run samples the host over about
// three times the window's length: run-to-run drift on a shared machine
// then averages out more. When tracing it then replays the last
// set-up's inputs in process.
func (b *bench) runWorkload(ctx context.Context, w *workload) (_ *outcome, err error) {
	b.check = newChecker()
	b.tr.setGroup(w.name)
	b.seq = 0
	var setups, boots []time.Duration
	win := &window{counters: scrape{}}
	var e *env
	defer func() {
		if e != nil {
			err = errors.Join(err, e.close())
		}
	}()
	for part := range setupReps {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		e = b.newEnv(w, part)
		start := time.Now()
		if err := w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		boots = append(boots, e.boot)
		restoreGC := quietGC(512 << 20)
		pw, err := w.measure(ctx, e)
		restoreGC()
		if err != nil {
			return nil, fmt.Errorf("window: %w", err)
		}
		win.add(pw)
	}
	if len(win.boots) == 0 {
		win.boots = boots
	}
	o := b.summarize(w, setups, win)
	if b.tr == nil {
		return o, nil
	}
	d := e.main
	if d == nil {
		// restart-disk keeps no daemon between iterations: boot one more
		// over the populated directory to read the reference outputs.
		if d, err = e.start(ctx, daemonConfig{cacheDir: e.dir}); err != nil {
			return nil, err
		}
	}
	ref, err := e.fetchReference(ctx, d.base)
	if err != nil {
		return nil, fmt.Errorf("reference outputs: %w", err)
	}
	if e.main == nil {
		if err := e.stop(d); err != nil {
			return nil, err
		}
	}
	replayed, diffs, err := b.replay(ctx, e.plan, ref)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, diff := range diffs {
		o.fail("replay: " + diff)
	}
	for k, v := range replayed {
		o.layer[k] = v
	}
	return o, nil
}

// quietGC keeps the generator's own garbage collector out of a
// measured window: collection waits until the heap reaches limit
// instead of running every few megabytes of response bodies, which on
// a two-core machine would take CPU from the daemon mid-window.
func quietGC(limit int64) (restore func()) {
	pct := debug.SetGCPercent(-1)
	lim := debug.SetMemoryLimit(limit)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(lim)
	}
}

// summarize computes the end-to-end metrics and the per-layer metrics
// the generator and /metrics give.
func (b *bench) summarize(w *workload, setups []time.Duration, win *window) *outcome {
	o := &outcome{workload: w.name, attempted: len(win.results), e2e: map[string]float64{}, layer: map[string]float64{}}
	var lat, late, traced, untraced []float64
	var good int
	var wire int64
	for _, r := range win.results {
		late = append(late, ms(r.late))
		if r.err != nil {
			o.fail(r.err.Error())
			continue
		}
		l := ms(r.latency)
		lat = append(lat, l)
		wire += r.wire
		if r.latency <= w.limit {
			good++
		}
		if r.traced {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	slices.Sort(late)
	if n := len(lat); tailPercentile(n) < w.tailPct {
		fmt.Fprintf(b.log, "%s: warning: %d samples leave fewer than 10 beyond p%g\n", w.name, n, w.tailPct)
	}
	secs := win.elapsed.Seconds()
	o.e2e["setup_s"] = median(durationsSeconds(setups))
	o.e2e["p50_ms"], o.e2e["tail_ms"] = sliceMedians(lat, w.tailPct)
	o.e2e["goodput_rps"] = ratio(float64(good), secs)
	o.e2e["wire_bytes_per_req"] = ratio(float64(wire), float64(len(lat)))
	o.e2e["rss_peak_mb"] = median(win.rssMiB)

	offered := ratio(float64(win.sent), secs)
	if win.planned > 0 {
		offered = ratio(float64(win.sent), win.planned.Seconds())
	}
	o.layer["gen.late_p99_ms"] = percentile(late, 99)
	o.layer["gen.offered_rps"] = offered
	if win.target > 0 && offered < 0.98*win.target {
		o.invalid = fmt.Sprintf("offered %.1f req/s, below 98%% of the %.0f req/s target", offered, win.target)
	}
	o.layer["process.boot_ms"] = median(durationsMS(win.boots))
	if b.tr != nil {
		base := percentile(sortedCopy(untraced), 50)
		o.layer["trace.overhead_pct"] = 100 * ratio(percentile(sortedCopy(traced), 50)-base, base)
	}
	counterMetrics(win.counters, o.layer)
	return o
}

// counterMetrics derives the /metrics per-layer metrics from a window's
// counter deltas.
func counterMetrics(c scrape, m map[string]float64) {
	var durSum, durCount float64
	for _, s := range c {
		if !strings.HasPrefix(s.labels["endpoint"], "/v1/") {
			continue
		}
		switch s.name {
		case "cuisined_http_request_duration_seconds_sum":
			durSum += s.value
		case "cuisined_http_request_duration_seconds_count":
			durCount += s.value
		}
	}
	m["http.server_ms_mean"] = 1000 * ratio(durSum, durCount)
	m["http.not_modified"] = c.sum("cuisined_http_not_modified_total")
	m["http.body_bytes.identity"] = c.sum("cuisined_http_body_bytes_total", "encoding", "identity")
	m["http.body_bytes.gzip"] = c.sum("cuisined_http_body_bytes_total", "encoding", "gzip")
	for _, layer := range []struct{ prefix, series string }{
		{"server.analysis", "cuisined_analysis_cache_events_total"},
		{"render", "cuisined_render_cache_events_total"},
	} {
		hits := c.sum(layer.series, "event", "hit")
		misses := c.sum(layer.series, "event", "miss")
		m[layer.prefix+".hits"] = hits
		m[layer.prefix+".misses"] = misses
		m[layer.prefix+".evictions"] = c.sum(layer.series, "event", "eviction")
		m[layer.prefix+".hit_ratio"] = ratio(hits, hits+misses)
	}
	m["server.admission.rejected"] = c.sum("cuisined_admission_rejected_total")
	m["render.gzip_variants"] = c.sum("cuisined_render_cache_gzip_variants_total")
	const stages = "cuisined_stage_cache_events_total"
	for _, kind := range stageKinds {
		m["stage."+kind+".computed"] = c.sum(stages, "stage", kind, "event", "computed")
	}
	m["artifact.memory_hits"] = c.sum(stages, "event", "hit")
	m["artifact.disk_hits"] = c.sum(stages, "event", "disk_hit")
	m["artifact.peer_hits"] = c.sum(stages, "event", "peer_hit")
	m["artifact.computed"] = c.sum(stages, "event", "computed")
	m["cluster.peer_serves"] = c.sum("cuisined_peer_serve_total", "result", "hit")
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
