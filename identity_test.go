package cuisines

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/pipeline"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/identity.golden from the first matrix cell that runs")

// identityGolden holds the one answer every cell of the identity
// matrix must print. It was first recorded from the monolithic figure
// build (the step functions wired by hand, outside the pipeline) and
// the pipeline printed the same bytes, so it also pins the staged graph
// to that reference.
const identityGolden = "testdata/identity.golden"

// identityScale keeps the matrix fast. The Sec. VII verdicts depend on
// scale (only the full corpus reproduces all eight claims; CI's
// evaltrees step and the EXPERIMENTS.md diff enforce that), so the
// golden pins each claim's verdict at this scale instead.
const identityScale = 0.05

// figureSections renders every output an Analysis derives without its
// corpus: Table I, each dendrogram with its Newick string, the Fig. 1
// elbow report and the Sec. VII report with every claim's verdict.
func figureSections(t *testing.T, a *Analysis) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("== Table I\n" + a.RenderTable())
	for _, f := range AllFigures() {
		d, err := a.Dendrogram(f)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := a.Newick(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n%s%s\n", f, d, nw)
	}
	b.WriteString("== Fig. 1\n" + a.ElbowReport())
	b.WriteString("== Sec. VII\n" + a.RenderValidation())
	return b.String()
}

// corpusSections renders the two outputs that read recipes: the
// Sec. III statistics and the food-pairing table.
func corpusSections(t *testing.T, a *Analysis) string {
	t.Helper()
	var b strings.Builder
	for _, s := range []struct {
		name string
		v    any
	}{{"Sec. III", a.Stats()}, {"food pairing", a.FoodPairings()}} {
		js, err := json.MarshalIndent(s.v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n%s\n", s.name, js)
	}
	return b.String()
}

// corpusTouches counts how often the corpus was loaded from disk,
// fetched from a peer or generated.
func corpusTouches(e *Engine) uint64 {
	st := e.CacheStats()["corpus"]
	return st.DiskHits + st.PeerHits + st.Computed
}

// firstDiff names the first line where got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// identityWant holds the golden's bytes once a cell has read or, with
// -update, recorded them, so the three matrix tests share one answer.
var identityWant []byte

// identityMatrix runs one Workers row of the repo's byte-identity
// matrix: cache state {cold, warm-memory, warm-disk, peer} × access
// {eager, demand-driven}, every cell printing the committed golden
// byte for byte. Eager cells read the corpus (Stats, FoodPairings)
// before anything else; demand-driven cells read it last, and a
// warm-disk or peer analysis must not touch the corpus until then.
// Warm-disk and peer cells compute nothing, and a peer cell fetches
// every stage kind from its peer.
func identityMatrix(t *testing.T, workers int) {
	t.Helper()
	if identityWant == nil && !*updateIdentity {
		var err error
		if identityWant, err = os.ReadFile(identityGolden); err != nil {
			t.Fatalf("%v (run with -update to record it)", err)
		}
	}
	opts := Options{Scale: identityScale, Workers: workers}
	for _, eager := range []bool{true, false} {
		access := "demand-driven"
		if eager {
			access = "eager"
		}
		t.Run(access, func(t *testing.T) {
			// cell runs one analysis and checks its bytes. untouched,
			// when set, is called after the figure outputs and
			// before the corpus is first read.
			cell := func(state string, e *Engine, untouched func()) {
				t.Helper()
				a, err := e.Run(opts)
				if err != nil {
					t.Fatalf("%s: %v", state, err)
				}
				var figs, corp string
				if eager {
					corp = corpusSections(t, a)
					figs = figureSections(t, a)
				} else {
					figs = figureSections(t, a)
					if untouched != nil {
						untouched()
					}
					corp = corpusSections(t, a)
				}
				got := figs + corp
				if identityWant == nil {
					if err := os.WriteFile(identityGolden, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					identityWant = []byte(got)
				}
				if want := string(identityWant); got != want {
					t.Errorf("%s: output differs from %s at %s", state, identityGolden, firstDiff(got, want))
				}
			}
			// noCompute checks a warm cell and, for demand-driven
			// access, that the corpus stays untouched until Stats.
			noCompute := func(state string, e *Engine) {
				t.Helper()
				cell(state, e, func() {
					if n := corpusTouches(e); n != 0 {
						t.Errorf("%s: corpus touched %d times before Stats, want 0", state, n)
					}
				})
				for kind, st := range e.CacheStats() {
					if st.Computed != 0 {
						t.Errorf("%s: %s computed %d times, want 0", state, kind, st.Computed)
					}
				}
				if n := corpusTouches(e); n != 1 {
					t.Errorf("%s: corpus touched %d times after Stats, want 1", state, n)
				}
			}

			dir := t.TempDir()
			cold := NewEngine(EngineConfig{CacheDir: dir})
			cell("cold", cold, nil)
			computed := cold.CacheStats()
			for kind := range pipeline.Codecs() {
				if st := computed[kind]; st.Computed == 0 || st.DiskHits != 0 || st.PeerHits != 0 {
					t.Errorf("cold: %s %+v, want computed and never loaded", kind, st)
				}
			}

			cell("warm-memory", cold, nil)
			for kind, st := range cold.CacheStats() {
				if st.Computed != computed[kind].Computed {
					t.Errorf("warm-memory: %s computed %d times, cold run %d", kind, st.Computed, computed[kind].Computed)
				}
			}

			noCompute("warm-disk", NewEngine(EngineConfig{CacheDir: dir}))

			peer := NewEngine(EngineConfig{})
			source := cold.ArtifactStore()
			peer.ArtifactStore().SetFetcher(func(_ context.Context, key string, codec artifact.Codec) ([]byte, bool) {
				frame, src := source.Encoded(key, codec)
				return frame, src != artifact.ServeMiss
			})
			noCompute("peer", peer)
			fetched := peer.CacheStats()
			for kind := range pipeline.Codecs() {
				if fetched[kind].PeerHits == 0 {
					t.Errorf("peer: %s never fetched from the peer", kind)
				}
			}
		})
	}
}

// TestEngineByteIdentityAcrossCacheStates is the matrix's Workers 1
// row: the sequential engine prints the golden from every cache state
// and either access order.
func TestEngineByteIdentityAcrossCacheStates(t *testing.T) { identityMatrix(t, 1) }

// TestParallelEquivalence is the Workers 8 row. It must print the same
// golden as Workers 1: parallelism may change how fast the answer
// arrives, never the answer.
func TestParallelEquivalence(t *testing.T) { identityMatrix(t, 8) }

// TestWorkersDefaultEquivalence is the Workers 0 (all cores) row, so
// the everyday configuration is pinned to the same golden too.
func TestWorkersDefaultEquivalence(t *testing.T) { identityMatrix(t, 0) }
