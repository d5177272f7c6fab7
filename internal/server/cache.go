// Package server exposes the cuisines Analysis facade as a JSON HTTP
// API backed by an LRU analysis cache with single-flight deduplication,
// bounded admission in front of the pipeline, request timeouts and a
// Prometheus-text /metrics endpoint. The cuisined daemon (cmd/cuisined)
// is a thin wrapper around it; the root package's Client speaks its
// wire format. See DESIGN.md §7 and §12.
package server

import (
	"container/list"
	"context"
	"sync"

	"cuisines"
)

// Runner is the pipeline entry point the cache invokes on a miss. The
// context is the flight's context, not any single request's: it is
// cancelled only when every request waiting on the run has gone away,
// at which point the pipeline stops at the next stage boundary. Tests
// substitute counting or stubbed runners; the daemon uses
// Engine.RunContext.
type Runner func(context.Context, cuisines.Options) (*cuisines.Analysis, error)

// Cache memoizes full pipeline runs keyed by canonicalized
// cuisines.Options (seed, scale, min-support, linkage — never Workers,
// which cannot change the output, or Miner, which has one value). A fixed number of
// analyses is kept with LRU eviction, and lookups are deduplicated
// single-flight style: any number of concurrent Gets for the same key
// share exactly one pipeline run.
//
// Each flight runs on its own goroutine under a context detached from
// the request that started it, so the first caller hanging up never
// kills a run other requests have joined; the flight is cancelled only
// when its last waiter leaves. Misses pass through the admission gate
// (when one is configured) before a flight is created, so a saturated
// pipeline rejects new work instead of accumulating goroutines.
//
// The cache sits in front of the per-stage artifact store: an analysis
// miss here still reuses every upstream stage artifact the engine
// already holds (same corpus and mining run, different linkage), so an
// eviction or a near-miss costs only the stages that actually differ.
type Cache struct {
	run  Runner
	gate *Gate // nil = unbounded admission
	max  int

	// onEvict, when non-nil, is called (outside the cache lock) with
	// each evicted key. The server uses it to drop the key's rendered
	// responses, tying render lifetime to analysis lifetime. Set it
	// before serving; it is read without synchronization.
	onEvict func(key cuisines.Options)

	mu      sync.Mutex
	entries map[cuisines.Options]*entry
	lru     *list.List // of *entry; front = most recently used

	hits          uint64
	misses        uint64
	evictions     uint64
	inFlightJoins uint64
}

// entry is one cached (or in-flight) analysis. ready is closed once a
// and err are final; waiters block on it outside the cache lock, so a
// slow pipeline run never stalls hits on other keys. done distinguishes
// a finished entry from an in-flight one under the cache lock (for the
// hit vs in-flight-join counters). waiters counts requests currently
// blocked on this flight; when the last one abandons the wait (its own
// context expired) cancel is invoked and the pipeline run halts at its
// next stage boundary.
type entry struct {
	key     cuisines.Options
	elem    *list.Element
	ready   chan struct{}
	done    bool
	waiters int
	cancel  context.CancelFunc
	a       *cuisines.Analysis
	err     error
}

// DefaultCacheSize bounds distinct analyses kept when the caller passes
// size <= 0. Analyses are large (every figure, and the corpus-derived
// stats and pairings once requested), so the default stays small.
const DefaultCacheSize = 8

// NewCache returns a Cache holding up to size analyses, running misses
// through run (nil means cuisines.Run via a private engine). A non-nil
// gate bounds how many misses may run or queue concurrently.
func NewCache(size int, run Runner, gate *Gate) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	if run == nil {
		run = func(ctx context.Context, opts cuisines.Options) (*cuisines.Analysis, error) {
			return cuisines.NewEngine(cuisines.EngineConfig{}).RunContext(ctx, opts)
		}
	}
	return &Cache{
		run:     run,
		gate:    gate,
		max:     size,
		entries: make(map[cuisines.Options]*entry),
		lru:     list.New(),
	}
}

// Key returns the cache key for opts: the canonical form with Workers
// and Miner zeroed (the two output-neutral knobs — requests differing
// only in them share one analysis). The error is the canonicalization
// error (unknown linkage or miner name).
func Key(opts cuisines.Options) (cuisines.Options, error) {
	canon, err := opts.Canonical()
	if err != nil {
		return cuisines.Options{}, err
	}
	canon.Workers = 0
	canon.Miner = ""
	return canon, nil
}

// Get returns the analysis for opts, computing it at most once per key
// no matter how many callers arrive concurrently. Failed runs are
// reported to every waiter of that flight but never cached, so a later
// request retries. ctx governs only this caller's wait (and admission
// queueing): when it expires the caller leaves with ctx's error, and
// the shared run is cancelled only if no other waiter remains. A miss
// that cannot be admitted returns ErrSaturated.
func (c *Cache) Get(ctx context.Context, opts cuisines.Options) (*cuisines.Analysis, error) {
	key, err := Key(opts)
	if err != nil {
		return nil, err
	}
	runOpts := key
	runOpts.Workers = opts.Workers

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.joinLocked(e)
		c.mu.Unlock()
		return c.await(ctx, e)
	}
	c.mu.Unlock()

	// A miss means a pipeline run: pass the admission gate (bounded
	// queue) before creating the flight. Joins and hits above stay
	// gate-free — they cost nothing.
	release := func() {}
	if c.gate != nil {
		release, err = c.gate.Acquire(ctx)
		if err != nil {
			return nil, err
		}
	}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		// Someone created the flight while we queued; give the slot
		// back and join them.
		c.joinLocked(e)
		c.mu.Unlock()
		release()
		return c.await(ctx, e)
	}
	c.misses++
	fctx, cancel := context.WithCancel(context.Background())
	e := &entry{key: key, ready: make(chan struct{}), waiters: 1, cancel: cancel}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	var dropped []cuisines.Options
	for c.lru.Len() > c.max {
		// Evicting an in-flight entry is safe: its waiters hold the
		// entry itself and still get the shared result.
		back := c.lru.Back()
		ev := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		c.evictions++
		dropped = append(dropped, ev.key)
	}
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, k := range dropped {
			c.onEvict(k)
		}
	}

	go func() {
		defer release()
		a, err := c.run(fctx, runOpts)
		cancel()
		c.mu.Lock()
		e.a, e.err = a, err
		e.done = true
		if err != nil && c.entries[key] == e { // failed: forget, allow retry
			c.lru.Remove(e.elem)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	return c.await(ctx, e)
}

// joinLocked registers the caller on an existing entry. Caller holds mu.
func (c *Cache) joinLocked(e *entry) {
	if e.done {
		c.hits++
	} else {
		c.inFlightJoins++
		e.waiters++
	}
	c.lru.MoveToFront(e.elem)
}

// await blocks until the flight completes or ctx expires. A waiter that
// leaves early decrements the flight's refcount; the last one out
// cancels the run.
func (c *Cache) await(ctx context.Context, e *entry) (*cuisines.Analysis, error) {
	select {
	case <-e.ready:
		return e.a, e.err
	case <-ctx.Done():
		c.mu.Lock()
		if !e.done {
			e.waiters--
			if e.waiters == 0 {
				e.cancel()
			}
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Stats returns the cache's counters and current occupancy.
func (c *Cache) Stats() cuisines.AnalysisCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cuisines.AnalysisCacheStats{
		Size:          c.lru.Len(),
		Capacity:      c.max,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		InFlightJoins: c.inFlightJoins,
	}
}

// Len reports how many analyses are cached or in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
