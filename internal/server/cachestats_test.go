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
	// must be hits, not recomputations.
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
		if got.Hits == 0 {
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

// gobValidateCodec frames a gob payload under the current validate
// kind and version: the frame a gob-coded validate stage would accept.
type gobValidateCodec struct{}

func (gobValidateCodec) Kind() string { return "validate" }
func (gobValidateCodec) Version() int { return pipeline.CodecVersions()["validate"] }

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
