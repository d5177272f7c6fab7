package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/hac"
	"cuisines/internal/recipedb"
)

const testScale = 0.05

func testParams(method hac.Method, workers int) Params {
	return Params{
		Seed:       corpus.DefaultSeed,
		Scale:      testScale,
		MinSupport: core.DefaultMinSupport,
		Method:     method,
		Workers:    workers,
	}
}

// snapshot renders every byte-identity-relevant output of a run.
func snapshot(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.Figures.Table1.String())
	for _, ct := range []*core.CuisineTree{
		r.Figures.Euclidean, r.Figures.Cosine, r.Figures.Jaccard, r.Figures.Auth, r.Figures.Geo,
	} {
		b.WriteString(ct.Name + "\n")
		b.WriteString(ct.Tree.Newick() + "\n")
		b.WriteString(ct.Tree.Render())
	}
	if err := r.Validation.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// figureSections renders a run's figure outputs in the layout of the
// root package's identity golden: Table I, each dendrogram under its
// figure label with its Newick string, the Fig. 1 elbow report and the
// Sec. VII report.
func figureSections(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("== Table I\n" + r.Figures.Table1.String())
	for _, f := range []struct {
		label string
		ct    *core.CuisineTree
	}{
		{"fig2-euclidean", r.Figures.Euclidean},
		{"fig3-cosine", r.Figures.Cosine},
		{"fig4-jaccard", r.Figures.Jaccard},
		{"fig5-authenticity", r.Figures.Auth},
		{"fig6-geographic", r.Figures.Geo},
	} {
		fmt.Fprintf(&b, "== %s\n%s (metric=%s, linkage=%s)\n%s%s\n",
			f.label, f.label, f.ct.Metric, f.ct.Linkage, f.ct.Tree.Render(), f.ct.Tree.Newick())
	}
	b.WriteString("== Fig. 1\n")
	if err := r.Figures.Elbow.Render(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("== Sec. VII\n")
	if err := r.Validation.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestByteIdentityWithMonolithicBuild pins the stage graph to the
// monolithic figure build it replaced. The figure sections of the root
// package's testdata/identity.golden were recorded from that build
// (the step functions wired by hand, outside the pipeline), and the
// pipeline must print them byte for byte — sequential and parallel,
// from cold, warm-memory and warm-disk caches. A warm-disk run
// recomputes no upstream stage.
func TestByteIdentityWithMonolithicBuild(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "identity.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(golden), "== Sec. III\n")
	if !ok {
		t.Fatal("identity golden has no Sec. III section")
	}

	dir := t.TempDir()
	for _, workers := range []int{1, 8} {
		// Cold disk-backed run, then warm-memory (same pipeline), then
		// warm-disk (fresh pipeline over the same dir).
		p := New(artifact.NewStore(artifact.Options{Dir: dir}))
		for _, state := range []string{"cold", "warm-memory"} {
			res, err := p.Run(context.Background(), testParams(core.DefaultLinkage, workers))
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, state, err)
			}
			if got := figureSections(t, res); got != want {
				t.Errorf("workers=%d %s: output differs from monolithic build", workers, state)
			}
		}
		p2 := New(artifact.NewStore(artifact.Options{Dir: dir}))
		res, err := p2.Run(context.Background(), testParams(core.DefaultLinkage, workers))
		if err != nil {
			t.Fatalf("workers=%d warm-disk: %v", workers, err)
		}
		if got := figureSections(t, res); got != want {
			t.Errorf("workers=%d warm-disk: output differs from monolithic build", workers)
		}
		if st := p2.Store().Stats(); st["corpus"].Computed != 0 || st["mine"].Computed != 0 {
			t.Errorf("workers=%d warm-disk: upstream stages recomputed: %+v", workers, st)
		}
	}
}

// TestLinkageOnlyChangeReusesUpstream is the staged-reuse acceptance
// test: switching only the linkage must reuse the cached corpus,
// mining, matrix and pdist artifacts — each upstream stage executes
// exactly once across the two runs.
func TestLinkageOnlyChangeReusesUpstream(t *testing.T) {
	p := New(nil)
	if _, err := p.Run(context.Background(), testParams(hac.Average, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), testParams(hac.Ward, 0)); err != nil {
		t.Fatal(err)
	}
	st := p.Store().Stats()
	for _, kind := range []string{"corpus", "mine", "matrices", "auth", "geodist", "elbow"} {
		if got := st[kind].Computed; got != 1 {
			t.Errorf("%s stage computed %d times across a linkage-only change, want 1", kind, got)
		}
	}
	// Three pattern pdists plus the authenticity pdist, each once.
	if got := st["pdist"].Computed; got != 4 {
		t.Errorf("pdist stage computed %d times, want 4", got)
	}
	// The Euclidean pattern tree always uses Ward, so its artifact is
	// shared; the other four trees differ by linkage: 1 + 4*2 = 9.
	if got := st["tree"].Computed; got != 9 {
		t.Errorf("tree stage computed %d times, want 9", got)
	}
	if got := st["validate"].Computed; got != 2 {
		t.Errorf("validate stage computed %d times, want 2", got)
	}
}

// TestMinSupportOnlyChangeReusesCorpus: a support change invalidates
// mining and everything downstream of it, but never the corpus or the
// corpus-keyed stages (authenticity features, geographic distances).
func TestMinSupportOnlyChangeReusesCorpus(t *testing.T) {
	p := New(nil)
	pr := testParams(core.DefaultLinkage, 0)
	if _, err := p.Run(context.Background(), pr); err != nil {
		t.Fatal(err)
	}
	pr.MinSupport = 0.25
	if _, err := p.Run(context.Background(), pr); err != nil {
		t.Fatal(err)
	}
	st := p.Store().Stats()
	for _, kind := range []string{"corpus", "auth", "geodist"} {
		if got := st[kind].Computed; got != 1 {
			t.Errorf("%s stage computed %d times across a support-only change, want 1", kind, got)
		}
	}
	for _, kind := range []string{"mine", "matrices", "elbow"} {
		if got := st[kind].Computed; got != 2 {
			t.Errorf("%s stage computed %d times across a support-only change, want 2", kind, got)
		}
	}
}

// TestRunOnContentAddressing: the same dataset supplied twice (and in a
// different object) shares one graph prefix via the content hash.
func TestRunOnContentAddressing(t *testing.T) {
	db, err := corpus.Generate(corpus.Config{Seed: 7, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	clone, err := recipedb.New(db.Recipes())
	if err != nil {
		t.Fatal(err)
	}
	if ContentKey(db) != ContentKey(clone) {
		t.Fatal("identical datasets produced different content keys")
	}
	p := New(nil)
	pr := Params{MinSupport: core.DefaultMinSupport, Method: core.DefaultLinkage}
	if _, err := p.RunOn(context.Background(), db, pr); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunOn(context.Background(), clone, pr); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats()["mine"].Computed; got != 1 {
		t.Errorf("mine stage computed %d times for identical datasets, want 1", got)
	}
}

// TestCorruptedDiskArtifactFallsBack: damaging a persisted artifact
// must silently recompute, with identical output.
func TestCorruptedDiskArtifactFallsBack(t *testing.T) {
	dir := t.TempDir()
	p := New(artifact.NewStore(artifact.Options{Dir: dir}))
	res, err := p.Run(context.Background(), testParams(core.DefaultLinkage, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, res)

	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no artifacts persisted: %v, %v", files, err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p2 := New(artifact.NewStore(artifact.Options{Dir: dir}))
	res2, err := p2.Run(context.Background(), testParams(core.DefaultLinkage, 0))
	if err != nil {
		t.Fatalf("corrupted cache dir was fatal: %v", err)
	}
	if got := snapshot(t, res2); got != want {
		t.Error("output differs after recovering from corrupted artifacts")
	}
	if st := p2.Store().Stats(); st["corpus"].DiskHits != 0 || st["corpus"].Computed != 1 {
		t.Errorf("corrupt corpus artifact should recompute: %+v", st["corpus"])
	}
}
