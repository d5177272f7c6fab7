package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cuisines/internal/server"
)

// clock is the generator's time source; tests substitute a fake one to
// check the schedule without sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks the thread in nanosleep(2). The runtime's own timers
// round waits under a millisecond up to a whole one when the process is
// otherwise idle, which would make every open-loop request up to 1 ms
// late at 1000 req/s.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// schedule calls dispatch(i, due) for i in [0, n), request i being due
// at start + i/rate. After every wake-up it dispatches each request
// already due before sleeping again, so a late wake-up (timer slack, a
// descheduled generator) sends a burst instead of dropping requests —
// the defect of pacing with a time.Ticker, which coalesces missed ticks.
func schedule(ctx context.Context, clk clock, start time.Time, n int, rate float64, dispatch func(i int, due time.Time)) error {
	for i := 0; i < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
			continue
		}
		dispatch(i, due)
		i++
	}
	return nil
}

// request is one generated HTTP request.
type request struct {
	family string // traffic class, e.g. "table"; names the client span
	path   string // path and query
	gzip   bool   // send Accept-Encoding: gzip
	reval  bool   // send If-None-Match with the URL's known ETag
	hop    bool   // pin local serving (no cluster proxy hop)
}

// result is one measured request, or one restart iteration.
type result struct {
	latency time.Duration // open loop: from due time; otherwise from send
	late    time.Duration // how late the generator sent it
	wire    int64         // response body bytes as they crossed the wire
	err     error         // transport error, bad status or failed check
	traced  bool          // carried a client span
}

// window is everything a measured window produced: one part of it, or
// the whole run's once the parts are added up.
type window struct {
	results  []result
	elapsed  time.Duration // until the last response arrived
	planned  time.Duration // open loop: the scheduled length; 0 for closed loops
	target   float64       // open-loop target rate; 0 for closed loops
	sent     int           // requests sent before the window closed
	counters scrape        // /metrics counter deltas, summed over every daemon used
	rssMiB   []float64
	boots    []time.Duration // daemon boots inside the window (restart workloads)
}

// add appends part o to w.
func (w *window) add(o *window) {
	w.results = append(w.results, o.results...)
	w.elapsed += o.elapsed
	w.planned += o.planned
	w.target = o.target
	w.sent += o.sent
	w.counters.add(o.counters)
	w.rssMiB = append(w.rssMiB, o.rssMiB...)
	w.boots = append(w.boots, o.boots...)
}

// runOpen drives reqs open loop at rate from workers goroutines: every
// request is due at its scheduled time whether or not earlier ones have
// finished, and its latency counts from that due time, so a stall in
// the daemon shows as latency on every request it delayed.
func (b *bench) runOpen(ctx context.Context, base string, reqs []request, rate float64) *window {
	// Sized to the number of sends, so dispatching never blocks the
	// scheduler; a backlog shows as lateness instead.
	jobs := make(chan int, len(reqs))
	dues := make([]time.Time, len(reqs))
	results := make([]result, len(reqs))
	seq := b.seq
	b.seq += int64(len(reqs))
	start := b.clk.Now()
	end := start.Add(b.part)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for lane := 1; lane <= b.workers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := reqs[i]
				at := b.clk.Now()
				if !at.After(end) {
					sent.Add(1)
				}
				rep, err := b.check.do(ctx, b.hc, base, r)
				traced := b.traceRequest(seq + int64(i))
				if traced {
					b.tr.record(0, 0, "http."+r.family, at, rep.at, seq+int64(i)+1, lane)
				}
				results[i] = result{latency: rep.at.Sub(dues[i]), late: at.Sub(dues[i]), wire: rep.wire, err: err, traced: traced}
			}
		}()
	}
	_ = schedule(ctx, b.clk, start, len(reqs), rate, func(i int, due time.Time) {
		dues[i] = due
		jobs <- i
	})
	close(jobs)
	wg.Wait()
	// The window lasts until its last response arrives, as a closed
	// loop's does, so a daemon that falls behind lowers goodput even when
	// nothing misses the limit.
	last := start
	for i, r := range results {
		if done := dues[i].Add(r.latency); done.After(last) {
			last = done
		}
	}
	return &window{results: results, elapsed: last.Sub(start), planned: b.part, target: rate, sent: int(sent.Load())}
}

// runClosed drives one client closed loop for the window: each request
// is sent when the previous one returns. next yields request i.
func (b *bench) runClosed(ctx context.Context, base string, next func(i int) request) *window {
	start := b.clk.Now()
	end := start.Add(b.part)
	prev := start
	win := &window{}
	for i := 0; ctx.Err() == nil; i++ {
		at := b.clk.Now()
		if !at.Before(end) {
			break
		}
		r := next(i)
		rep, err := b.check.do(ctx, b.hc, base, r)
		b.seq++
		traced := b.traceRequest(b.seq - 1)
		if traced {
			b.tr.record(0, 0, "http."+r.family, at, rep.at, b.seq, 1)
		}
		win.results = append(win.results, result{latency: rep.at.Sub(at), late: at.Sub(prev), wire: rep.wire, err: err, traced: traced})
		prev = rep.at
	}
	win.elapsed = prev.Sub(start)
	win.sent = len(win.results)
	return win
}

// traceRequest reports whether the run's request number seq carries a
// client span. In a traced run half the requests do, so one window
// yields a traced and an untraced latency sample and trace.overhead_pct
// compares them without a second run. The half is picked by the parity
// of seq's set bits (the Thue–Morse sequence), which splits every
// aligned pair of requests and stays balanced within each class of a
// workload that cycles its request families.
func (b *bench) traceRequest(seq int64) bool {
	return b.tr != nil && bits.OnesCount64(uint64(seq))%2 == 0
}

// checker sends requests and checks every response: a 200 must carry
// the strong ETag of its identity body (gzip bodies are decoded first),
// a URL must keep one ETag for the whole run, a 304 must answer a
// request that sent the URL's ETag, and body, when set, adds workload
// checks. Any other status is a failure.
type checker struct {
	mu    sync.Mutex
	etags map[string]string // path → the one ETag the run has seen for it
	body  func(path string, identity []byte) error
}

func newChecker() *checker { return &checker{etags: map[string]string{}} }

func (c *checker) etag(path string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.etags[path]
}

func (c *checker) remember(path, etag string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.etags[path]; ok && prev != etag {
		return fmt.Errorf("%s: ETag changed from %s to %s", path, prev, etag)
	}
	c.etags[path] = etag
	return nil
}

// reply is a checked response.
type reply struct {
	body []byte    // identity body; nil for a 304
	wire int64     // body bytes as they crossed the wire
	at   time.Time // when the last body byte arrived, before any check ran
}

// do sends r to base and checks the response.
func (c *checker) do(ctx context.Context, hc *http.Client, base string, r request) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+r.path, nil)
	if err != nil {
		return reply{at: time.Now()}, err
	}
	if r.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	sentTag := ""
	if r.reval {
		if sentTag = c.etag(r.path); sentTag != "" {
			req.Header.Set("If-None-Match", sentTag)
		}
	}
	if r.hop {
		req.Header.Set(server.HopHeader, "1")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{at: time.Now()}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{wire: int64(len(body)), at: time.Now()}
	if err != nil {
		return rep, fmt.Errorf("%s: reading body: %w", r.path, err)
	}
	tag := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotModified:
		if sentTag == "" || tag != sentTag {
			return rep, fmt.Errorf("%s: 304 with ETag %q for If-None-Match %q", r.path, tag, sentTag)
		}
		return rep, nil
	default:
		return rep, fmt.Errorf("%s: %s: %.200s", r.path, resp.Status, body)
	}
	identity := body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if identity, err = gunzip(body); err != nil {
			return rep, fmt.Errorf("%s: gzip body: %w", r.path, err)
		}
	}
	sum := sha256.Sum256(identity)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; tag != want {
		return rep, fmt.Errorf("%s: ETag %s, body hashes to %s", r.path, tag, want)
	}
	if err := c.remember(r.path, tag); err != nil {
		return rep, err
	}
	if c.body != nil {
		if err := c.body(r.path, identity); err != nil {
			return rep, fmt.Errorf("%s: %w", r.path, err)
		}
	}
	rep.body = identity
	return rep, nil
}

// gzipReaders recycles decompressors: each holds tens of kilobytes of
// state, and the generator decodes hundreds of bodies a second.
var gzipReaders sync.Pool

func gunzip(b []byte) ([]byte, error) {
	zr, _ := gzipReaders.Get().(*gzip.Reader)
	var err error
	if zr == nil {
		zr, err = gzip.NewReader(bytes.NewReader(b))
	} else {
		err = zr.Reset(bytes.NewReader(b))
	}
	if err != nil {
		return nil, err
	}
	defer gzipReaders.Put(zr)
	return io.ReadAll(zr)
}

// newClient returns the generator's HTTP client: at most conns
// keep-alive connections per daemon, and no transparent decompression,
// so body sizes are wire sizes and gzip decoding is checked here.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}
}
