package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/url"
	"os"
	"slices"
	"strconv"
	"time"

	"cuisines"
	"cuisines/internal/corpus"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// workload is one traffic pattern against one daemon configuration.
// The scales are chosen so every run, with its three set-ups, fits the
// time budget in README.md. The tail percentile of each closed loop
// over whole analyses is the highest with ten samples beyond it at the
// fewest samples a slow run yields. The two sub-millisecond workloads
// report lower ones: on a shared two-vCPU guest their far tails measure
// the host's stalls, not the daemon, and over ten runs of one commit
// warm-serve's p90 spread by 29–43% of its median and param-sweep's p99
// by up to 41% (README.md, "Measured spread").
type workload struct {
	name    string
	scale   float64       // the daemon's corpus scale
	rate    float64       // open-loop requests per second; 0 = closed loop
	tailPct float64       // the percentile reported as tail_ms
	limit   time.Duration // latency limit for goodput_rps
	setup   func(ctx context.Context, e *env) error
	measure func(ctx context.Context, e *env) (*window, error)
}

func workloads() []*workload {
	return []*workload{
		{name: "warm-serve", scale: 1, rate: 1000, tailPct: 75, limit: 10 * time.Millisecond,
			setup: setupWarmServe, measure: measureWarmServe},
		{name: "cold-analysis", scale: 0.08, tailPct: 66, limit: 2 * time.Second,
			setup: setupColdAnalysis, measure: measureColdAnalysis},
		{name: "param-sweep", scale: 0.25, tailPct: 90, limit: 50 * time.Millisecond,
			setup: setupParamSweep, measure: measureParamSweep},
		{name: "restart-disk", scale: 0.5, tailPct: 66, limit: time.Second,
			setup: setupRestartDisk, measure: measureRestartDisk},
		{name: "restart-peer", scale: 0.25, tailPct: 66, limit: 2 * time.Second,
			setup: setupRestartPeer, measure: measureRestartPeer},
	}
}

// env is one set-up of a workload: its live daemons and scratch
// directories, and what the window and the replay need from the set-up.
type env struct {
	b       *bench
	w       *workload
	daemons []*daemon
	dirs    []string
	boot    time.Duration // boot time of the set-up's first daemon

	main    *daemon  // the daemon the window drives (node A for restart-peer)
	regions []string // the corpus's cuisines, in canonical order
	urls    map[string][]string
	seeds   func() uint64 // cold-analysis: the next fresh corpus seed
	want    []byte        // restart workloads: /v1/table from the set-up's cold compute
	dir     string        // restart workloads: the populated cache directory
	peers   []string      // restart-peer: node A and node B base URLs
	addrB   string
	part    int // which of the run's set-ups this is

	plan replayPlan // what the traced replay recomputes and compares
}

func (b *bench) newEnv(w *workload, part int) *env {
	return &env{b: b, w: w, part: part, plan: replayPlan{opts: cuisines.Options{Scale: w.scale}}}
}

// rng returns the generator for one use in this set-up's part of the
// window: every input derives from -seed alone, and the parts differ.
func (e *env) rng(use uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.b.seed, uint64(e.part)<<8|use))
}

// start launches a daemon owned by the env.
func (e *env) start(ctx context.Context, cfg daemonConfig) (*daemon, error) {
	if cfg.addr == "" {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		cfg.addr = addr
	}
	if cfg.scale == 0 {
		cfg.scale = e.w.scale
	}
	d, err := e.b.launch.launch(ctx, cfg)
	if err != nil {
		return nil, err
	}
	e.daemons = append(e.daemons, d)
	if e.boot == 0 {
		e.boot = d.boot
	}
	return d, nil
}

// stop shuts one of the env's daemons down.
func (e *env) stop(d *daemon) error {
	e.daemons = slices.DeleteFunc(e.daemons, func(x *daemon) bool { return x == d })
	err := d.stop()
	e.b.hc.CloseIdleConnections()
	return err
}

func (e *env) tempDir() (string, error) {
	dir, err := os.MkdirTemp(e.b.tmp, "cache-*")
	if err != nil {
		return "", err
	}
	e.dirs = append(e.dirs, dir)
	return dir, nil
}

// close stops every daemon and removes every directory of the env.
func (e *env) close() error {
	var errs []error
	for len(e.daemons) > 0 {
		errs = append(errs, e.stop(e.daemons[len(e.daemons)-1]))
	}
	for _, dir := range e.dirs {
		errs = append(errs, os.RemoveAll(dir))
	}
	e.dirs = nil
	return errors.Join(errs...)
}

// get sends one checked request and returns the identity body.
func (e *env) get(ctx context.Context, base string, r request) ([]byte, error) {
	rep, err := e.b.check.do(ctx, e.b.hc, base, r)
	return rep.body, err
}

// fetchRegions reads the cuisine list from /v1/table.
func (e *env) fetchRegions(ctx context.Context, base string) error {
	body, err := e.get(ctx, base, request{family: "table", path: "/v1/table"})
	if err != nil {
		return err
	}
	var t cuisines.TableResponse
	if err := json.Unmarshal(body, &t); err != nil {
		return fmt.Errorf("/v1/table: %w", err)
	}
	e.regions = e.regions[:0]
	for _, row := range t.Rows {
		e.regions = append(e.regions, row.Region)
	}
	if len(e.regions) == 0 {
		return fmt.Errorf("/v1/table lists no cuisines")
	}
	return nil
}

// measureOne runs load against d with /metrics scraped around it and
// d's peak RSS read at its end.
func (e *env) measureOne(ctx context.Context, d *daemon, load func() *window) (*window, error) {
	before, err := scrapeMetrics(ctx, e.b.hc, d.base)
	if err != nil {
		return nil, err
	}
	win := load()
	after, err := scrapeMetrics(ctx, e.b.hc, d.base)
	if err != nil {
		return nil, err
	}
	rss, err := d.rss()
	if err != nil {
		return nil, err
	}
	win.counters = delta(before, after)
	win.rssMiB = []float64{rss}
	return win, nil
}

// The warm-serve mix: the weights of the API's query families.
var warmMix = []struct {
	family string
	weight int
}{
	{"table", 4}, {"stats", 2}, {"fingerprint", 2}, {"patterns", 1}, {"rules", 1},
	{"closest", 1}, {"newick", 1}, {"dendrogram", 1}, {"clusters", 1}, {"claims", 1}, {"map", 1},
}

// familyURLs lists every URL of a query family: it cycles the regions,
// every figure and k = 2..8.
func familyURLs(family string, regions []string) []string {
	var out []string
	switch family {
	case "table", "stats", "claims", "map":
		out = append(out, "/v1/"+family)
	case "fingerprint", "patterns", "rules":
		for _, r := range regions {
			out = append(out, "/v1/"+family+"/"+url.PathEscape(r))
		}
	case "closest":
		for _, f := range cuisines.AllFigures() {
			for _, r := range regions {
				out = append(out, "/v1/closest/"+f.String()+"?region="+url.QueryEscape(r))
			}
		}
	case "newick", "dendrogram":
		for _, f := range cuisines.AllFigures() {
			out = append(out, "/v1/"+family+"/"+f.String())
		}
	case "clusters":
		for _, f := range cuisines.AllFigures() {
			for k := 2; k <= 8; k++ {
				out = append(out, "/v1/clusters/"+f.String()+"?k="+strconv.Itoa(k))
			}
		}
	}
	return out
}

// warmServeRequests generates the open-loop sequence. Which requests it
// holds is fixed: families in their mix weights, each family cycling its
// URLs, half of each family's requests accepting gzip and a quarter
// revalidating, the treatments rotating across a family's URLs from one
// cycle to the next. The seed only orders them, so runs with different
// seeds put the same bytes on the wire.
func warmServeRequests(rng *rand.Rand, urls map[string][]string, n int) []request {
	weights := make([]int, len(warmMix))
	for i, m := range warmMix {
		weights[i] = m.weight
	}
	mix := &wrr{weights: weights, current: make([]int, len(weights))}
	sent := make([]int, len(warmMix))
	reqs := make([]request, n)
	for i := range reqs {
		f := mix.next()
		list := urls[warmMix[f].family]
		j := sent[f]
		sent[f]++
		k := j + j/len(list)
		reqs[i] = request{family: warmMix[f].family, path: list[j%len(list)], gzip: k%2 == 0, reval: k%4 == 1}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// wrr is smooth weighted round-robin: deterministic, and it interleaves
// classes as evenly as their weights allow.
type wrr struct{ weights, current []int }

func (w *wrr) next() int {
	total, best := 0, 0
	for i, wt := range w.weights {
		w.current[i] += wt
		total += wt
		if w.current[i] > w.current[best] {
			best = i
		}
	}
	w.current[best] -= total
	return best
}

func setupWarmServe(ctx context.Context, e *env) error {
	// At full scale the paper's claims all hold; the daemon must say so.
	e.b.check.body = func(path string, body []byte) error {
		if path != "/v1/claims" || e.w.scale != 1 {
			return nil
		}
		var c cuisines.ClaimsResponse
		if err := json.Unmarshal(body, &c); err != nil {
			return err
		}
		if !c.AllHold {
			return fmt.Errorf("all_hold is false at full scale")
		}
		return nil
	}
	d, err := e.start(ctx, daemonConfig{preload: true})
	if err != nil {
		return err
	}
	e.main = d
	if err := e.fetchRegions(ctx, d.base); err != nil {
		return err
	}
	// Touch every URL once, accepting gzip, so the window meets a warm
	// render cache with every gzip variant built.
	e.urls = map[string][]string{}
	for _, m := range warmMix {
		e.urls[m.family] = familyURLs(m.family, e.regions)
		for _, u := range e.urls[m.family] {
			if _, err := e.get(ctx, d.base, request{family: m.family, path: u, gzip: true}); err != nil {
				return err
			}
		}
	}
	e.plan.cacheSeq = slices.Repeat([]cuisines.Options{e.plan.opts}, 200)
	return nil
}

func measureWarmServe(ctx context.Context, e *env) (*window, error) {
	n := int(e.w.rate * e.b.part.Seconds())
	reqs := warmServeRequests(e.rng(1), e.urls, n)
	return e.measureOne(ctx, e.main, func() *window { return e.b.runOpen(ctx, e.main.base, reqs, e.w.rate) })
}

// coldSeeds yields distinct corpus seeds drawn from rng, never the
// daemon's default one.
func coldSeeds(rng *rand.Rand) func() uint64 {
	seen := map[uint64]bool{corpus.DefaultSeed: true}
	return func() uint64 {
		for {
			s := 1 + rng.Uint64N(1<<40)
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
}

func setupColdAnalysis(ctx context.Context, e *env) error {
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	d, err := e.start(ctx, daemonConfig{cacheDir: dir})
	if err != nil {
		return err
	}
	e.main = d
	// One analysis before the window, so the window sees a daemon that
	// has already grown its heap and written to its cache directory.
	e.seeds = coldSeeds(e.rng(3))
	_, err = e.get(ctx, d.base, request{family: "table", path: fmt.Sprintf("/v1/table?seed=%d", e.seeds())})
	return err
}

func measureColdAnalysis(ctx context.Context, e *env) (*window, error) {
	var used []uint64
	win, err := e.measureOne(ctx, e.main, func() *window {
		return e.b.runClosed(ctx, e.main.base, func(int) request {
			s := e.seeds()
			used = append(used, s)
			return request{family: "table", path: fmt.Sprintf("/v1/table?seed=%d", s)}
		})
	})
	if err != nil {
		return nil, err
	}
	if len(used) == 0 {
		return nil, fmt.Errorf("the window sent no request")
	}
	e.plan.opts.Seed = used[0]
	e.plan.refQuery = fmt.Sprintf("?seed=%d", used[0])
	for _, s := range used[:min(3, len(used))] {
		e.plan.cacheSeq = append(e.plan.cacheSeq, cuisines.Options{Scale: e.w.scale, Seed: s})
	}
	return win, nil
}

// The param-sweep grid: 3 supports × 5 linkages = 15 analyses against
// an analysis cache of server.DefaultCacheSize (8).
var (
	sweepSupports = []string{"0.2", "0.25", "0.3"}
	sweepLinkages = []string{"single", "complete", "average", "weighted", "ward"}
	sweepFamilies = []string{"table", "newick", "clusters", "closest"}
)

// sweepRequests returns the param-sweep generator for seed: each call
// yields the next request and the analysis options it selects. The
// families, supports, figures, k and regions take strict turns, so what
// the responses weigh hardly depends on the seed; the linkage, drawn
// from the seed, makes about half the lookups miss the analysis cache.
func sweepRequests(rng *rand.Rand, regions []string, scale float64) func() (request, cuisines.Options) {
	figs := cuisines.AllFigures()
	i := 0
	return func() (request, cuisines.Options) {
		fam := sweepFamilies[i%len(sweepFamilies)]
		sup := sweepSupports[i%len(sweepSupports)]
		j := i / len(sweepFamilies) // the family's own request count
		i++
		lk := sweepLinkages[rng.IntN(len(sweepLinkages))]
		fig := figs[j%len(figs)].String()
		k := 2 + j%7
		region := regions[j%len(regions)]
		q := "support=" + sup + "&linkage=" + lk
		var path string
		switch fam {
		case "table":
			path = "/v1/table?" + q
		case "newick":
			path = "/v1/newick/" + fig + "?" + q
		case "clusters":
			path = "/v1/clusters/" + fig + "?k=" + strconv.Itoa(k) + "&" + q
		case "closest":
			path = "/v1/closest/" + fig + "?region=" + url.QueryEscape(region) + "&" + q
		}
		support, _ := strconv.ParseFloat(sup, 64)
		return request{family: fam, path: path}, cuisines.Options{Scale: scale, MinSupport: support, Linkage: lk}
	}
}

func setupParamSweep(ctx context.Context, e *env) error {
	d, err := e.start(ctx, daemonConfig{preload: true})
	if err != nil {
		return err
	}
	e.main = d
	if err := e.fetchRegions(ctx, d.base); err != nil {
		return err
	}
	// Compute all 15 analyses once, so every stage artifact the window
	// needs sits in the daemon's memory tier.
	for _, sup := range sweepSupports {
		for _, lk := range sweepLinkages {
			path := "/v1/table?support=" + sup + "&linkage=" + lk
			if _, err := e.get(ctx, d.base, request{family: "table", path: path}); err != nil {
				return err
			}
		}
	}
	next := sweepRequests(e.rng(2), e.regions, e.w.scale)
	for range 200 {
		_, opts := next()
		e.plan.cacheSeq = append(e.plan.cacheSeq, opts)
	}
	return nil
}

func measureParamSweep(ctx context.Context, e *env) (*window, error) {
	next := sweepRequests(e.rng(2), e.regions, e.w.scale)
	return e.measureOne(ctx, e.main, func() *window {
		return e.b.runClosed(ctx, e.main.base, func(int) request {
			r, _ := next()
			return r
		})
	})
}

// restartLoop re-execs a daemon per iteration until the window closes.
// Each iteration boots cfg (with a fresh empty cache directory when
// freshDir is set), waits for /healthz and fetches /v1/table, timed
// from exec to the last body byte; /metrics and the peak RSS are read
// after the timing stops.
func (e *env) restartLoop(ctx context.Context, cfg daemonConfig, freshDir bool) (*window, error) {
	b := e.b
	win := &window{counters: scrape{}}
	start := b.clk.Now()
	end := start.Add(b.part)
	prev := start
	for ctx.Err() == nil && b.clk.Now().Before(end) {
		if freshDir {
			dir, err := os.MkdirTemp(b.tmp, "cache-*")
			if err != nil {
				return nil, err
			}
			cfg.cacheDir = dir
		}
		d, err := e.start(ctx, cfg)
		if err != nil {
			return nil, err
		}
		rep, reqErr := b.check.do(ctx, b.hc, d.base, request{family: "table", path: "/v1/table", hop: cfg.peers != nil})
		done := rep.at
		counters, scrapeErr := scrapeMetrics(ctx, b.hc, d.base)
		rss, rssErr := d.rss()
		err = errors.Join(scrapeErr, rssErr, e.stop(d))
		if freshDir {
			err = errors.Join(err, os.RemoveAll(cfg.cacheDir))
		}
		if err != nil {
			return nil, err
		}
		win.counters.add(counters)
		win.rssMiB = append(win.rssMiB, rss)
		win.boots = append(win.boots, d.boot)
		b.seq++
		traced := b.traceRequest(b.seq - 1)
		if traced {
			id, ready := b.tr.id(), d.execAt.Add(d.boot)
			b.tr.record(0, id, "process.boot", d.execAt, ready, b.seq, 1)
			b.tr.record(0, id, "http.table", ready, done, b.seq, 1)
			b.tr.record(id, 0, "restart.iteration", d.execAt, done, b.seq, 1)
		}
		win.results = append(win.results, result{latency: done.Sub(d.execAt), late: d.execAt.Sub(prev), wire: rep.wire, err: reqErr, traced: traced})
		prev = done
	}
	win.elapsed = prev.Sub(start)
	win.sent = len(win.results)
	return win, nil
}

// expectTable makes every /v1/table answer byte-equal to want, the
// set-up node's cold compute.
func (e *env) expectTable() {
	e.b.check.body = func(path string, body []byte) error {
		if path == "/v1/table" && string(body) != string(e.want) {
			return fmt.Errorf("body differs from the set-up node's cold compute (%d vs %d bytes)", len(body), len(e.want))
		}
		return nil
	}
}

func setupRestartDisk(ctx context.Context, e *env) error {
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	d, err := e.start(ctx, daemonConfig{cacheDir: dir})
	if err != nil {
		return err
	}
	// The body check is installed only after this first compute, which
	// defines what every restart must serve.
	e.b.check.body = nil
	if e.want, err = e.get(ctx, d.base, request{family: "table", path: "/v1/table"}); err != nil {
		return err
	}
	e.expectTable()
	e.dir = dir
	e.plan.cacheSeq = slices.Repeat([]cuisines.Options{e.plan.opts}, 5)
	e.plan.freshCache = true
	return e.stop(d)
}

func measureRestartDisk(ctx context.Context, e *env) (*window, error) {
	return e.restartLoop(ctx, daemonConfig{cacheDir: e.dir}, false)
}

func setupRestartPeer(ctx context.Context, e *env) error {
	addrA, err := freeAddr()
	if err != nil {
		return err
	}
	if e.addrB, err = freeAddr(); err != nil {
		return err
	}
	e.peers = []string{"http://" + addrA, "http://" + e.addrB}
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	a, err := e.start(ctx, daemonConfig{addr: addrA, cacheDir: dir, peers: e.peers})
	if err != nil {
		return err
	}
	e.main, e.dir = a, dir
	e.b.check.body = nil
	if e.want, err = e.get(ctx, a.base, request{family: "table", path: "/v1/table", hop: true}); err != nil {
		return err
	}
	e.expectTable()
	e.plan.cacheSeq = slices.Repeat([]cuisines.Options{e.plan.opts}, 5)
	e.plan.freshCache = true
	e.plan.peerBase, e.plan.peerDir = a.base, dir
	e.plan.refHop = true
	return nil
}

func measureRestartPeer(ctx context.Context, e *env) (*window, error) {
	before, err := scrapeMetrics(ctx, e.b.hc, e.main.base)
	if err != nil {
		return nil, err
	}
	win, err := e.restartLoop(ctx, daemonConfig{addr: e.addrB, peers: e.peers}, true)
	if err != nil {
		return nil, err
	}
	after, err := scrapeMetrics(ctx, e.b.hc, e.main.base)
	if err != nil {
		return nil, err
	}
	win.counters.add(delta(before, after))
	return win, nil
}
