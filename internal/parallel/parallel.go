// Package parallel is the deterministic fan-out layer shared by every hot
// stage of the pipeline (corpus generation, per-cuisine mining, pdist,
// dendrogram construction and the on-demand elbow sweep). It provides a
// bounded worker pool in three shapes — a dynamic parallel-for, a
// chunked parallel-for, and an order-preserving map — all with the same
// contract: the result of a parallel run is byte-identical to the
// sequential run, for any worker count. Determinism comes from the
// index, not the schedule: every job is keyed by its position in
// [0, n), reads only immutable shared inputs, and writes only its own
// slot of the assembled output. Workers only decide *when* a job runs,
// never *what* it computes or *where* its result lands.
//
// The package deliberately has no queues, channels of results, or
// completion callbacks: those introduce schedule-dependent ordering, which
// is exactly what the pipeline's reproducibility guarantee (DESIGN.md §3,
// §5) forbids.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Count resolves a requested worker count: n > 0 is used as given, and
// anything else (the "default" zero) means runtime.GOMAXPROCS(0). The
// result is always at least 1.
func Count(n int) int {
	if n > 0 {
		return n
	}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 1
}

// trap records the panic of the lowest job index across a fan-out, so a
// panicking parallel run re-raises the same panic value the sequential
// run would have raised first — panic propagation is deterministic and,
// like everything else here, identical between the two paths.
type trap struct {
	mu  sync.Mutex
	idx int
	val any
	set bool
}

// protect runs f for job index idx, capturing a panic instead of letting
// it kill the worker goroutine (where no caller could recover it).
func (t *trap) protect(idx int, f func()) {
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			if !t.set || idx < t.idx {
				t.idx, t.val, t.set = idx, r, true
			}
			t.mu.Unlock()
		}
	}()
	f()
}

// rethrow re-raises the recorded panic, if any, on the calling goroutine.
func (t *trap) rethrow() {
	if t.set {
		panic(t.val)
	}
}

// For runs fn(i) for every i in [0, n) exactly once, using up to `workers`
// goroutines (Count semantics: <= 0 means GOMAXPROCS). Jobs are handed out
// dynamically from a shared atomic counter, so uneven per-index costs
// (e.g. the triangular rows of a condensed distance matrix) balance
// automatically. With workers resolved to 1, or n < 2, fn runs inline on
// the calling goroutine — the sequential path is the parallel path.
//
// fn is called from worker goroutines, so it must only read shared state
// and write to storage owned by index i. If fn panics, the remaining
// jobs still run (panicking jobs are independent of their siblings) and
// the panic of the lowest panicking index is re-raised on the calling
// goroutine, where it unwinds — and can be recovered — exactly like a
// sequential panic.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Count(workers)
	if w > n {
		w = n
	}
	var tr trap
	if w == 1 {
		// Same trap discipline as the parallel branch, so a panicking fn
		// leaves identical state behind (all sibling jobs executed, lowest
		// panic re-raised) for any worker count.
		for i := 0; i < n; i++ {
			tr.protect(i, func() { fn(i) })
		}
		tr.rethrow()
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				tr.protect(i, func() { fn(i) })
			}
		}()
	}
	wg.Wait()
	tr.rethrow()
}

// ForChunks partitions [0, n) into at most `workers` contiguous,
// near-equal chunks and runs fn(lo, hi) for each half-open range. The
// partition depends only on n and the resolved worker count — never on
// scheduling — so a caller that derives per-chunk state (a start index
// decoded from lo, a scratch buffer, an RNG stream) gets identical state
// on every run. Use ForChunks when per-index work is small and uniform
// and per-chunk setup amortizes (pdist decodes its (i, j) cursor once per
// chunk, then advances incrementally); use For when per-index costs are
// irregular and dynamic hand-out balances better.
func ForChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Count(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, n)
		return
	}
	// Distribute the remainder over the leading chunks so sizes differ by
	// at most one.
	size, rem := n/w, n%w
	var tr trap
	var wg sync.WaitGroup
	wg.Add(w)
	lo := 0
	for c := 0; c < w; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		go func(c, lo, hi int) {
			defer wg.Done()
			tr.protect(c, func() { fn(lo, hi) })
		}(c, lo, hi)
		lo = hi
	}
	wg.Wait()
	tr.rethrow()
}

// Map runs fn for every index in [0, n) and assembles the results in index
// order: out[i] = fn(i), regardless of which worker computed it or when.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapErr is Map for fallible jobs. All jobs run to completion (no early
// cancellation — jobs are pure and cheap to finish, and aborting would
// make the set of executed jobs schedule-dependent); if any failed, the
// error of the lowest failing index is returned, so the reported error is
// deterministic too.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	For(n, workers, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Do runs the given independent tasks concurrently on up to `workers`
// goroutines and returns the error of the lowest-index failing task, if
// any. It is the heterogeneous sibling of MapErr, used where a pipeline
// stage fans out into a fixed set of differently-shaped jobs (the five
// dendrograms plus the elbow sweep).
func Do(workers int, tasks ...func() error) error {
	_, err := MapErr(len(tasks), workers, func(i int) (struct{}, error) {
		return struct{}{}, tasks[i]()
	})
	return err
}
