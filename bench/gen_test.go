package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances only when slept on; every sleep overshoots by
// oversleep, like a descheduled generator waking late.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d + c.oversleep)
	c.sleeps++
}

// TestScheduleNoDropsAt4000 runs one second at 4000 req/s on a clock
// that wakes 3 ms late every time: every request must still go out, in
// order, with its exact due time, in bursts rather than dropped ticks.
func TestScheduleNoDropsAt4000(t *testing.T) {
	for _, oversleep := range []time.Duration{0, 3 * time.Millisecond, 40 * time.Millisecond} {
		clk := &fakeClock{now: time.Unix(1000, 0), oversleep: oversleep}
		start := clk.Now()
		const rate, n = 4000, 4000
		next := 0
		err := schedule(context.Background(), clk, start, n, rate, func(i int, due time.Time) {
			if i != next {
				t.Fatalf("oversleep %v: dispatched %d, want %d", oversleep, i, next)
			}
			next++
			if want := start.Add(time.Duration(i) * time.Second / rate); !due.Equal(want) {
				t.Fatalf("oversleep %v: request %d due %v, want %v", oversleep, i, due, want)
			}
			now := clk.Now()
			if now.Before(due) {
				t.Fatalf("oversleep %v: request %d sent before it was due", oversleep, i)
			}
			if late := now.Sub(due); late > oversleep+time.Second/rate {
				t.Fatalf("oversleep %v: request %d sent %v late", oversleep, i, late)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != n {
			t.Fatalf("oversleep %v: %d of %d requests dispatched", oversleep, next, n)
		}
		if oversleep > 0 && clk.sleeps > n/2 {
			t.Errorf("oversleep %v: %d wake-ups for %d requests; late wake-ups must send bursts", oversleep, clk.sleeps, n)
		}
	}
}

func TestScheduleStopsOnCancel(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	sent := 0
	err := schedule(ctx, clk, clk.Now(), 100, 10, func(int, time.Time) {
		if sent++; sent == 5 {
			cancel()
		}
	})
	if err == nil || sent != 5 {
		t.Fatalf("err %v after %d dispatches, want cancellation after 5", err, sent)
	}
}

// serveChecked answers with body under its strong ETag, 304 for a
// matching If-None-Match, gzip when asked and gz is set.
func serveChecked(w http.ResponseWriter, r *http.Request, body []byte, gz bool) {
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if gz && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(body)
		zw.Close()
		w.Header().Set("Content-Encoding", "gzip")
		body = buf.Bytes()
	}
	w.Write(body)
}

// TestRunOpenSendsEveryRequest drives the whole open-loop path against
// a test server at 4000 req/s: every request is sent inside the window
// and checked.
func TestRunOpenSendsEveryRequest(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveChecked(w, r, []byte("body of "+r.URL.Path), true)
	}))
	defer srv.Close()
	b := &bench{
		clk: &fakeClock{now: time.Unix(0, 0)}, hc: newClient(2), workers: 2,
		part: 100 * time.Millisecond, check: newChecker(),
	}
	defer b.hc.CloseIdleConnections()
	reqs := make([]request, 400)
	for i := range reqs {
		reqs[i] = request{family: "f", path: "/u" + strconv.Itoa(i%7), gzip: i%2 == 0, reval: i%4 == 3}
	}
	win := b.runOpen(context.Background(), srv.URL, reqs, 4000)
	if win.sent != len(reqs) {
		t.Errorf("%d of %d requests sent inside the window", win.sent, len(reqs))
	}
	for i, r := range win.results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
}

func TestCheckerCatchesBadResponses(t *testing.T) {
	var flips atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/good":
			serveChecked(w, r, []byte("good"), false)
		case "/gzip":
			serveChecked(w, r, bytes.Repeat([]byte("compressible "), 50), true)
		case "/wrong-etag":
			w.Header().Set("ETag", `"0000"`)
			w.Write([]byte("x"))
		case "/flip":
			serveChecked(w, r, []byte("version "+strconv.Itoa(int(flips.Add(1)))), false)
		case "/unasked-304":
			w.WriteHeader(http.StatusNotModified)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	c := newChecker()
	ctx := context.Background()
	do := func(r request) (reply, error) { return c.do(ctx, hc, srv.URL, r) }

	if rep, err := do(request{path: "/good"}); err != nil || string(rep.body) != "good" {
		t.Fatalf("good: %q %v", rep.body, err)
	}
	if rep, err := do(request{path: "/good", reval: true}); err != nil || rep.body != nil || rep.wire != 0 {
		t.Fatalf("revalidation: %+v %v, want an empty 304", rep, err)
	}
	rep, err := do(request{path: "/gzip", gzip: true})
	if err != nil || !bytes.HasPrefix(rep.body, []byte("compressible")) || rep.wire >= int64(len(rep.body)) {
		t.Fatalf("gzip: wire %d, body %d, %v", rep.wire, len(rep.body), err)
	}
	if _, err := do(request{path: "/flip"}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/wrong-etag", "/flip", "/unasked-304", "/500"} {
		if _, err := do(request{path: path}); err == nil {
			t.Errorf("%s passed the checks", path)
		}
	}
	c.body = func(path string, body []byte) error {
		if string(body) != "good" {
			return nil
		}
		return errors.New("workload check failed")
	}
	if _, err := do(request{path: "/good"}); err == nil {
		t.Error("a failing workload check passed")
	}
}
