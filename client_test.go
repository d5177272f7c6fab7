// Client tests live in an external test package: internal/server
// imports the root package, so an in-package test would be an import
// cycle. They exercise the full wire round trip — Client -> HTTP ->
// Server -> Analysis — against a real listener.
package cuisines_test

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cuisines"
	"cuisines/internal/server"
)

const clientTestScale = 0.02

var (
	refOnce     sync.Once
	refAnalysis *cuisines.Analysis
	refErr      error
)

// refLocal is the in-process reference the wire results must match.
func refLocal(t *testing.T) *cuisines.Analysis {
	t.Helper()
	refOnce.Do(func() {
		refAnalysis, refErr = cuisines.Run(cuisines.Options{Scale: clientTestScale})
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refAnalysis
}

func newTestDaemon(t *testing.T, workers int) (*httptest.Server, *cuisines.Client) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{
		Base: cuisines.Options{Scale: clientTestScale, Workers: workers},
	}))
	t.Cleanup(ts.Close)
	return ts, cuisines.NewClient(ts.URL)
}

// TestNewickByteIdentical is the acceptance check: the daemon's
// /v1/newick/{figure} bytes must equal Analysis.Newick exactly, for any
// -workers value.
func TestNewickByteIdentical(t *testing.T) {
	ref := refLocal(t)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		_, c := newTestDaemon(t, workers)
		for _, f := range cuisines.AllFigures() {
			want, err := ref.Newick(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Newick(ctx, f)
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, f, err)
			}
			if got != want {
				t.Fatalf("workers=%d %v: wire newick differs\ngot:  %q\nwant: %q", workers, f, got, want)
			}
		}
	}
}

func TestClientRoundTrip(t *testing.T) {
	ref := refLocal(t)
	_, c := newTestDaemon(t, 0)
	ctx := context.Background()

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("health: %+v, %v", h, err)
	}

	rows, err := c.Table(ctx)
	if err != nil {
		t.Fatal(err)
	}
	localRows := ref.Table()
	if len(rows) != len(localRows) {
		t.Fatalf("table rows = %d, local %d", len(rows), len(localRows))
	}
	for i := range rows {
		if rows[i].Region != localRows[i].Region || rows[i].Recipes != localRows[i].Recipes ||
			rows[i].Patterns != localRows[i].Patterns {
			t.Fatalf("row %d differs:\nwire:  %+v\nlocal: %+v", i, rows[i], localRows[i])
		}
	}

	d, err := c.Dendrogram(ctx, cuisines.FigureAuthenticity)
	if err != nil || !strings.Contains(d, "Japanese") {
		t.Fatalf("dendrogram: %v\n%s", err, d)
	}

	groups, err := c.Clusters(ctx, cuisines.FigureAuthenticity, 5)
	if err != nil || len(groups) != 5 {
		t.Fatalf("clusters: %d groups, %v", len(groups), err)
	}

	closest, dist, err := c.ClosestCuisine(ctx, cuisines.FigureGeographic, "UK")
	if err != nil || closest != "Irish" || dist <= 0 {
		t.Fatalf("closest: %q at %v (%v)", closest, dist, err)
	}
	wantDist, err := ref.CuisineDistance(cuisines.FigureGeographic, "UK", "Irish")
	if err != nil || dist != wantDist {
		t.Fatalf("closest distance %v, local %v (%v)", dist, wantDist, err)
	}

	fp, err := c.Fingerprint(ctx, "Japanese", 5)
	if err != nil || len(fp.Most) != 5 || len(fp.Least) != 5 {
		t.Fatalf("fingerprint: %+v, %v", fp, err)
	}

	ps, err := c.CuisinePatterns(ctx, "Japanese")
	if err != nil || len(ps) < 10 {
		t.Fatalf("patterns: %d, %v", len(ps), err)
	}

	rules, err := c.AssociationRules(ctx, "Japanese", 0.6, 10)
	if err != nil || len(rules) == 0 {
		t.Fatalf("rules: %d, %v", len(rules), err)
	}
	// Perfect rules must survive the wire: +Inf conviction has no JSON
	// representation and travels as "perfect": true.
	all, err := c.AssociationRules(ctx, "Japanese", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundPerfect := false
	for _, r := range all {
		if r.IsPerfect() {
			foundPerfect = true
			if !math.IsInf(r.Conviction, 1) {
				t.Fatalf("perfect rule lost its conviction: %+v", r)
			}
		}
	}
	localAll, err := ref.AssociationRules("Japanese", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	localPerfect := false
	for _, r := range localAll {
		localPerfect = localPerfect || r.IsPerfect()
	}
	if foundPerfect != localPerfect {
		t.Fatalf("perfect rules wire=%v local=%v", foundPerfect, localPerfect)
	}

	pair, err := c.Pairings(ctx, "Indian Subcontinent")
	if err != nil || pair.Pairing.Region != "Indian Subcontinent" {
		t.Fatalf("pairings: %+v, %v", pair, err)
	}

	subs, err := c.Substitutes(ctx, "Chinese and Mongolian", "ginger", 5)
	if err != nil || len(subs) == 0 {
		t.Fatalf("substitutes: %d, %v", len(subs), err)
	}

	m, err := c.CuisineMap(ctx)
	if err != nil || len(m.Points) != 26 {
		t.Fatalf("map: %d points, %v", len(m.Points), err)
	}

	claims, err := c.Claims(ctx)
	if err != nil || len(claims.Claims) != 8 || len(claims.Fits) != 4 {
		t.Fatalf("claims: %+v, %v", claims, err)
	}

	st, err := c.Stats(ctx)
	if err != nil || !reflect.DeepEqual(st.Stats, ref.Stats()) {
		t.Fatalf("stats differ:\nwire:  %+v\nlocal: %+v (%v)", st.Stats, ref.Stats(), err)
	}
	if st.Miner != "eclat" {
		t.Fatalf("stats echoed miner %q, want %q", st.Miner, "eclat")
	}
}

func TestClientErrorPropagation(t *testing.T) {
	_, c := newTestDaemon(t, 0)
	ctx := context.Background()
	if _, err := c.CuisinePatterns(ctx, "Narnia"); err == nil || !strings.Contains(err.Error(), "unknown region") {
		t.Fatalf("unknown region error: %v", err)
	}
	if _, err := c.Newick(ctx, cuisines.Figure(42)); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, _, err := c.ClosestCuisine(ctx, cuisines.FigureCosine, "Narnia"); err == nil {
		t.Fatal("unknown region accepted")
	}
}
