package server

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cuisines"
)

// The cache tests use stub runners (the cache never looks inside an
// Analysis), so they exercise keying, eviction and flight-sharing
// without pipeline runs.

func TestCacheLRUEviction(t *testing.T) {
	runsPerScale := map[float64]int{}
	var mu sync.Mutex
	c := NewCache(2, func(_ context.Context, o cuisines.Options) (*cuisines.Analysis, error) {
		mu.Lock()
		runsPerScale[o.Scale]++
		mu.Unlock()
		return nil, nil
	}, nil)
	get := func(scale float64) {
		t.Helper()
		if _, err := c.Get(context.Background(), cuisines.Options{Scale: scale}); err != nil {
			t.Fatal(err)
		}
	}
	get(0.1)
	get(0.2)
	get(0.1) // refresh 0.1: 0.2 becomes the eviction candidate
	get(0.3) // evicts 0.2
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	get(0.1) // still cached
	get(0.2) // evicted: must rerun
	if runsPerScale[0.1] != 1 || runsPerScale[0.2] != 2 || runsPerScale[0.3] != 1 {
		t.Fatalf("runs per scale: %v", runsPerScale)
	}
}

func TestCacheDoesNotCacheFailures(t *testing.T) {
	fail := true
	runs := 0
	c := NewCache(4, func(context.Context, cuisines.Options) (*cuisines.Analysis, error) {
		runs++
		if fail {
			return nil, errors.New("transient")
		}
		return nil, nil
	}, nil)
	if _, err := c.Get(context.Background(), cuisines.Options{}); err == nil {
		t.Fatal("first run should fail")
	}
	if c.Len() != 0 {
		t.Fatalf("failed run cached (len %d)", c.Len())
	}
	fail = false
	if _, err := c.Get(context.Background(), cuisines.Options{}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2 (failure must not be cached)", runs)
	}
	if _, err := c.Get(context.Background(), cuisines.Options{}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("success not cached (runs = %d)", runs)
	}
}

func TestCacheRejectsBadOptions(t *testing.T) {
	c := NewCache(1, func(context.Context, cuisines.Options) (*cuisines.Analysis, error) {
		t.Fatal("runner called for invalid options")
		return nil, nil
	}, nil)
	if _, err := c.Get(context.Background(), cuisines.Options{Linkage: "centroid"}); err == nil {
		t.Fatal("unknown linkage accepted")
	}
}

func TestCacheKeyIgnoresWorkers(t *testing.T) {
	runs := 0
	c := NewCache(4, func(context.Context, cuisines.Options) (*cuisines.Analysis, error) {
		runs++
		return nil, nil
	}, nil)
	for _, w := range []int{0, 1, 8} {
		if _, err := c.Get(context.Background(), cuisines.Options{Workers: w}); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 1 {
		t.Fatalf("worker counts split the cache key (%d runs)", runs)
	}
}

func TestCacheKeyIgnoresMiner(t *testing.T) {
	runs := 0
	c := NewCache(4, func(context.Context, cuisines.Options) (*cuisines.Analysis, error) {
		runs++
		return nil, nil
	}, nil)
	// Every spelling of the one miner shares one analysis.
	for _, m := range []string{"", "eclat", "Eclat", " ECLAT "} {
		if _, err := c.Get(context.Background(), cuisines.Options{Miner: m}); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 1 {
		t.Fatalf("miner names split the cache key (%d runs)", runs)
	}
	for _, m := range []string{"bogus", "fpgrowth", "apriori"} {
		if _, err := c.Get(context.Background(), cuisines.Options{Miner: m}); err == nil {
			t.Fatalf("miner %q accepted", m)
		}
	}
}
