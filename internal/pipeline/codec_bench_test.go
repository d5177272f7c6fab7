package pipeline

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/hac"
	"cuisines/internal/kmeans"
	"cuisines/internal/recipedb"
)

// P7 (DESIGN.md §10): the artifact codec benchmark. For each stage
// kind it measures the flat codec, encode and decode separately, with
// -benchmem; the corpus case also runs the retired gob path (gob over
// []recipedb.Recipe, then recipedb.New) for comparison. The committed
// "before" evidence for the other kinds' gob paths is BENCH_6.json:
// their types no longer carry gob encoders.

// codecFixture holds one artifact of each stage kind, taken from one
// pipeline run at the pipeline tests' scale.
type codecFixture struct {
	db       *recipedb.DB
	mined    []core.RegionPatterns
	feats    *PatternFeatures
	pdist    *distance.Condensed
	auth     *authenticity.Matrix
	tree     *core.CuisineTree
	elbow    *kmeans.ElbowCurve
	validate *core.Validation
	err      error
}

var codecFixOnce sync.Once
var codecFix codecFixture

func codecFixtures(tb testing.TB) codecFixture {
	codecFixOnce.Do(func() {
		res, err := New(nil).Run(context.Background(), testParams(hac.Average, 0))
		if err != nil {
			codecFix.err = err
			return
		}
		figs := res.Figures
		codecFix = codecFixture{
			db:       res.DB,
			mined:    figs.Mined,
			feats:    &PatternFeatures{Table1: figs.Table1, Matrix: figs.Patterns},
			pdist:    figs.Euclidean.Distances,
			auth:     figs.AuthMat,
			tree:     figs.Euclidean,
			elbow:    figs.Elbow,
			validate: res.Validation,
		}
	})
	if codecFix.err != nil {
		tb.Fatal(codecFix.err)
	}
	return codecFix
}

// codecCases pairs every stage codec with its fixture value.
func (fx codecFixture) codecCases() []struct {
	codec flatCodec
	v     any
} {
	return []struct {
		codec flatCodec
		v     any
	}{
		{corpusCodec, fx.db},
		{mineCodec, fx.mined},
		{matricesCodec, fx.feats},
		{pdistCodec, fx.pdist},
		{authCodec, fx.auth},
		{treeCodec, fx.tree},
		{elbowCodec, fx.elbow},
		{validateCodec, fx.validate},
	}
}

func BenchmarkArtifactCodecs(b *testing.B) {
	fx := codecFixtures(b)
	var gobBytes bytes.Buffer
	if err := gob.NewEncoder(&gobBytes).Encode(fx.db.Recipes()); err != nil {
		b.Fatal(err)
	}
	b.Run("corpus/gob-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(gobBytes.Len()))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(fx.db.Recipes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("corpus/gob-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(gobBytes.Len()))
		for i := 0; i < b.N; i++ {
			var recipes []recipedb.Recipe
			if err := gob.NewDecoder(bytes.NewReader(gobBytes.Bytes())).Decode(&recipes); err != nil {
				b.Fatal(err)
			}
			if _, err := recipedb.New(recipes); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range fx.codecCases() {
		flatBytes, err := c.codec.AppendEncode(nil, c.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.codec.kind+"/flat-encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(flatBytes)))
			var dst []byte
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = c.codec.AppendEncode(dst[:0], c.v)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.codec.kind+"/flat-decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(flatBytes)))
			for i := 0; i < b.N; i++ {
				if _, err := c.codec.DecodeBytes(flatBytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPeerServe measures the peer-serving read path,
// artifact.Store.Encoded, on the corpus artifact at the restart-peer
// benchmark workload's scale (0.25). A disk store answers with its
// stored frame after a read and a checksum; a memory-only store has no
// frame to send and re-encodes the value on every serve.
func BenchmarkPeerServe(b *testing.B) {
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	key := artifact.Key("corpus", "peer-serve")
	for _, c := range []struct {
		name string
		opts artifact.Options
		want artifact.ServeSource
	}{
		{"disk", artifact.Options{Dir: b.TempDir()}, artifact.ServeDisk},
		{"memory", artifact.Options{}, artifact.ServeMemory},
	} {
		s := artifact.NewStore(c.opts)
		if _, err := s.GetOrCompute(context.Background(), key, corpusCodec, func() (any, error) { return db, nil }); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			frame, src := s.Encoded(key, corpusCodec)
			if src != c.want {
				b.Fatalf("served from source %d, want %d", src, c.want)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, src := s.Encoded(key, corpusCodec); src != c.want {
					b.Fatalf("served from source %d, want %d", src, c.want)
				}
			}
		})
	}
}
