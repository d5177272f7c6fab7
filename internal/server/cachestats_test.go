package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cuisines"
	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/pipeline"
)

// stubAnalysis produces a tiny real analysis for cache-stats tests.
func stubAnalysis(t *testing.T) *cuisines.Analysis {
	t.Helper()
	a, err := cuisines.Run(cuisines.Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCacheStatsEndpointCounters(t *testing.T) {
	a := stubAnalysis(t)
	s := New(Config{
		Base:   cuisines.Options{Scale: testScale},
		Runner: func(context.Context, cuisines.Options) (*cuisines.Analysis, error) { return a, nil },
	})
	for i := 0; i < 3; i++ {
		if code, body, _ := get(t, s, "/v1/table"); code != 200 {
			t.Fatalf("table %d: %d %s", i, code, body)
		}
	}
	code, body, _ := get(t, s, "/v1/cachestats")
	if code != 200 {
		t.Fatalf("cachestats: %d %s", code, body)
	}
	st := decode[cuisines.CacheStatsResponse](t, body)
	if st.Analyses.Misses != 1 || st.Analyses.Hits != 2 {
		t.Errorf("analyses = %+v, want 1 miss and 2 hits", st.Analyses)
	}
	if st.Analyses.Size != 1 || st.Analyses.Capacity != DefaultCacheSize {
		t.Errorf("analyses = %+v, want size 1 capacity %d", st.Analyses, DefaultCacheSize)
	}
	// A custom Runner bypasses the stage graph: stages present but empty.
	if len(st.Stages) != 0 {
		t.Errorf("stages = %+v, want empty with a custom runner", st.Stages)
	}
}

func TestCacheStatsExposesStages(t *testing.T) {
	engine := cuisines.NewEngine(cuisines.EngineConfig{})
	s := New(Config{Base: cuisines.Options{Scale: testScale}, Engine: engine})
	if code, body, _ := get(t, s, "/v1/table"); code != 200 {
		t.Fatalf("table: %d %s", code, body)
	}
	// Same corpus and mining run, different linkage: upstream stages
	// must be hits, not recomputations. The corpus is read only by the
	// mine and auth computes, so the second run does not touch it and
	// the first reads it once.
	if code, body, _ := get(t, s, "/v1/table?linkage=ward"); code != 200 {
		t.Fatalf("table?linkage=ward: %d %s", code, body)
	}
	code, body, _ := get(t, s, "/v1/cachestats")
	if code != 200 {
		t.Fatalf("cachestats: %d %s", code, body)
	}
	st := decode[cuisines.CacheStatsResponse](t, body)
	if st.Analyses.Misses != 2 {
		t.Errorf("analyses = %+v, want 2 misses", st.Analyses)
	}
	for _, kind := range []string{"corpus", "mine", "matrices"} {
		got, ok := st.Stages[kind]
		if !ok {
			t.Errorf("stages missing %q: %+v", kind, st.Stages)
			continue
		}
		if got.Computed != 1 {
			t.Errorf("%s computed %d times across a linkage-only change, want 1", kind, got.Computed)
		}
		if kind == "corpus" {
			if got.Hits != 0 || got.DiskHits != 0 {
				t.Errorf("corpus read again after it was computed: %+v", got)
			}
		} else if got.Hits == 0 {
			t.Errorf("%s has no memory hits after a linkage-only change: %+v", kind, got)
		}
	}
}

// TestWarmRestartServesFromDisk is the daemon-restart acceptance test
// in-process: a second server over the same cache dir serves /v1/table
// without recomputing any pipeline stage.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	opts := cuisines.Options{Scale: testScale}

	s1 := New(Config{Base: opts, Engine: cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})})
	code, body1, _ := get(t, s1, "/v1/table")
	if code != 200 {
		t.Fatalf("first boot table: %d %s", code, body1)
	}

	// "Restart": fresh engine and server over the same directory.
	s2 := New(Config{Base: opts, Engine: cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})})
	code, body2, _ := get(t, s2, "/v1/table")
	if code != 200 {
		t.Fatalf("second boot table: %d %s", code, body2)
	}
	if string(body1) != string(body2) {
		t.Error("warm-disk /v1/table differs from cold")
	}
	_, statsBody, _ := get(t, s2, "/v1/cachestats")
	st := decode[cuisines.CacheStatsResponse](t, statsBody)
	for kind, sc := range st.Stages {
		if sc.Computed != 0 {
			t.Errorf("stage %s computed %d times on warm restart, want 0 (stats: %+v)", kind, sc.Computed, st.Stages)
		}
		if sc.DiskHits == 0 {
			t.Errorf("stage %s loaded nothing from disk on warm restart: %+v", kind, sc)
		}
	}
	if len(st.Stages) == 0 {
		t.Error("no stage stats on warm restart")
	}
}

// TestCacheStatsAgreesWithMetrics: /v1/cachestats and /metrics read
// the same per-stage counters, so after a cold request and a warm
// restart — one of whose files is corrupt, so the restart both loads
// and rejects — every stage's hits, disk hits, disk rejects, peer hits
// and computes agree between the two, sample for sample.
func TestCacheStatsAgreesWithMetrics(t *testing.T) {
	dir := t.TempDir()
	opts := cuisines.Options{Scale: testScale}
	agree := func(boot string, s *Server) {
		t.Helper()
		_, body, _ := get(t, s, "/v1/cachestats")
		stages := decode[cuisines.CacheStatsResponse](t, body).Stages
		_, metricsBody, _ := get(t, s, "/metrics")
		samples := parseMetrics(t, string(metricsBody))
		for kind := range pipeline.Codecs() {
			st := stages[kind]
			for _, ev := range []struct {
				event string
				n     uint64
			}{
				{"hit", st.Hits}, {"disk_hit", st.DiskHits}, {"disk_reject", st.DiskRejects},
				{"peer_hit", st.PeerHits}, {"computed", st.Computed},
			} {
				series := fmt.Sprintf("cuisined_stage_cache_events_total{stage=%q,event=%q}", kind, ev.event)
				got, ok := samples[series]
				if !ok {
					t.Errorf("%s: /metrics has no %s", boot, series)
				} else if got != float64(ev.n) {
					t.Errorf("%s: %s = %v, /v1/cachestats says %d", boot, series, got, ev.n)
				}
			}
		}
	}

	cold := New(Config{Base: opts, Engine: cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})})
	if code, body, _ := get(t, cold, "/v1/table"); code != 200 {
		t.Fatalf("cold table: %d %s", code, body)
	}
	agree("cold", cold)

	trees, err := filepath.Glob(filepath.Join(dir, "tree-*.art"))
	if err != nil || len(trees) == 0 {
		t.Fatalf("no tree artifacts on disk: %v", err)
	}
	if err := os.WriteFile(trees[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := New(Config{Base: opts, Engine: cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})})
	for _, path := range []string{"/v1/table", "/v1/stats"} {
		if code, body, _ := get(t, warm, path); code != 200 {
			t.Fatalf("warm %s: %d %s", path, code, body)
		}
	}
	if st := warm.engine.CacheStats()["tree"]; st.DiskRejects != 1 || st.Computed != 1 {
		t.Fatalf("warm restart over a corrupt tree file: %+v, want 1 reject and 1 compute", st)
	}
	agree("warm restart", warm)
}

// corpusFreePaths is one URL per /v1 analysis family that reads no
// recipes, so a warm restart answers each without loading the corpus.
var corpusFreePaths = []string{
	"/v1/table",
	"/v1/dendrogram/fig5-authenticity",
	"/v1/newick/fig3-cosine",
	"/v1/clusters/fig5-authenticity?k=5",
	"/v1/closest/fig6-geographic?region=UK",
	"/v1/fingerprint/Japanese?k=5",
	"/v1/patterns/Japanese",
	"/v1/rules/Japanese?min_confidence=0.6&max=20",
	"/v1/substitutes/Chinese%20and%20Mongolian?ingredient=ginger&k=5",
	"/v1/map",
	"/v1/claims",
}

// corpusPaths are the families that read recipes.
var corpusPaths = []string{"/v1/stats", "/v1/pairings/Japanese"}

// TestWarmRestartLoadsCorpusOnDemand: a fresh engine over a populated
// cache directory serves every corpus-free family byte-identical to
// the cold engine without touching the corpus, then loads it exactly
// once for stats and pairings. A deleted or corrupt corpus file
// surfaces only there, and recomputes.
func TestWarmRestartLoadsCorpusOnDemand(t *testing.T) {
	dir := t.TempDir()
	opts := cuisines.Options{Scale: testScale}
	cold := New(Config{Base: opts, Engine: cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})})
	want := map[string][]byte{}
	for _, p := range append(corpusFreePaths, corpusPaths...) {
		code, body, _ := get(t, cold, p)
		if code != 200 {
			t.Fatalf("cold %s: %d %s", p, code, body)
		}
		want[p] = body
	}
	files, err := filepath.Glob(filepath.Join(dir, "corpus-*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("corpus files on disk: %v (err %v)", files, err)
	}
	corpusFile := files[0]
	pristine, err := os.ReadFile(corpusFile)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name               string
		damage             func() error
		diskHits, computed uint64
	}{
		{"intact", func() error { return nil }, 1, 0},
		{"deleted", func() error { return os.Remove(corpusFile) }, 0, 1},
		{"corrupt", func() error { return os.WriteFile(corpusFile, []byte("garbage"), 0o644) }, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(corpusFile, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(); err != nil {
				t.Fatal(err)
			}
			engine := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})
			s := New(Config{Base: opts, Engine: engine})
			serve := func(paths []string) {
				t.Helper()
				for _, p := range paths {
					if code, body, _ := get(t, s, p); code != 200 || !bytes.Equal(body, want[p]) {
						t.Fatalf("warm %s: %d\n%s\nwant\n%s", p, code, body, want[p])
					}
				}
			}

			serve(corpusFreePaths)
			for kind, st := range engine.CacheStats() {
				if (kind == "corpus" && st != (cuisines.StageCacheStats{})) || st.Computed != 0 {
					t.Errorf("stage %s before stats: %+v, want no corpus traffic and nothing computed", kind, st)
				}
			}
			_, metrics, _ := get(t, s, "/metrics")
			for _, series := range []string{
				`cuisined_stage_cache_events_total{stage="corpus",event="disk_hit"} 0` + "\n",
				`cuisined_stage_cache_events_total{stage="corpus",event="computed"} 0` + "\n",
			} {
				if !bytes.Contains(metrics, []byte(series)) {
					t.Errorf("/metrics lacks %q", series)
				}
			}

			serve(corpusPaths)
			st := engine.CacheStats()["corpus"]
			if st.DiskHits != tc.diskHits || st.Computed != tc.computed || st.PeerHits != 0 {
				t.Errorf("corpus after stats and pairings: %+v, want %d disk hits and %d computed", st, tc.diskHits, tc.computed)
			}
		})
	}
}

// gobValidateCodec frames a gob payload under the current validate
// kind and version: the frame a gob-coded validate stage would accept.
type gobValidateCodec struct{}

func (gobValidateCodec) Kind() string { return "validate" }
func (gobValidateCodec) Version() int { return pipeline.Codecs()["validate"].Version() }

func (gobValidateCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return append(dst, buf.Bytes()...), err
}

func (gobValidateCodec) DecodeBytes([]byte) (any, error) {
	return nil, fmt.Errorf("gobValidateCodec only encodes")
}

// TestPoisonedValidateFileRecomputes is the daemon-level regression
// test for a poisoned analysis cache: a disk file answers the
// validation's key with a frame that passes VerifyFrame but holds the
// gob encoding of a Validation whose fit has no Report. A restarted
// server must refuse it, recompute the validate stage alone, and serve
// /v1/claims byte-identical to the cold run.
func TestPoisonedValidateFileRecomputes(t *testing.T) {
	dir := t.TempDir()
	opts := cuisines.Options{Scale: testScale}
	s1 := New(Config{Base: opts, Engine: cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})})
	code, cold, _ := get(t, s1, "/v1/claims")
	if code != 200 {
		t.Fatalf("cold claims: %d %s", code, cold)
	}

	files, err := filepath.Glob(filepath.Join(dir, "validate-*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("validate files on disk: %v (err %v)", files, err)
	}
	poison, err := artifact.EncodeFrame(gobValidateCodec{}, &core.Validation{TreeFit: []core.TreeFit{{Name: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.VerifyFrame(poison, pipeline.Codecs()["validate"]); err != nil {
		t.Fatalf("poisoned frame fails VerifyFrame, so this test proves nothing: %v", err)
	}
	if err := os.WriteFile(files[0], poison, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Base: opts, Engine: cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})})
	code, warm, _ := get(t, s2, "/v1/claims")
	if code != 200 || string(warm) != string(cold) {
		t.Fatalf("claims over the poisoned file: %d\n%s\nwant\n%s", code, warm, cold)
	}
	_, statsBody, _ := get(t, s2, "/v1/cachestats")
	st := decode[cuisines.CacheStatsResponse](t, statsBody)
	for kind, sc := range st.Stages {
		want := uint64(0)
		if kind == "validate" {
			want = 1
		}
		if sc.Computed != want {
			t.Errorf("stage %s computed %d times, want %d (stats: %+v)", kind, sc.Computed, want, sc)
		}
	}
}

func TestCacheStatsCountsEvictions(t *testing.T) {
	a := stubAnalysis(t)
	s := New(Config{
		Base:      cuisines.Options{Scale: testScale},
		CacheSize: 1,
		Runner:    func(context.Context, cuisines.Options) (*cuisines.Analysis, error) { return a, nil },
	})
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("/v1/table?seed=%d", i+1)
		if code, body, _ := get(t, s, path); code != 200 {
			t.Fatalf("%s: %d %s", path, code, body)
		}
	}
	_, body, _ := get(t, s, "/v1/cachestats")
	st := decode[cuisines.CacheStatsResponse](t, body)
	if st.Analyses.Evictions != 2 || st.Analyses.Misses != 3 {
		t.Errorf("analyses = %+v, want 3 misses and 2 evictions", st.Analyses)
	}
}
