package pipeline

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/recipedb"
)

// P7 (DESIGN.md §10): the artifact codec benchmark. For each flat
// artifact codec it measures the retired gob path against the flat
// codec, encode and decode separately, with -benchmem — the gob
// sub-benchmarks are the committed "before" evidence in BENCH_6.json,
// and the decode allocs/op columns are the headline: flat decodes in
// O(1) large allocations where gob allocates per element.

// codecFixture holds one artifact of each flat-coded kind, built once
// at the pipeline tests' scale.
type codecFixture struct {
	db    *recipedb.DB
	mined []core.RegionPatterns
	feats *PatternFeatures
	pdist *distance.Condensed
	err   error
}

var codecFixOnce sync.Once
var codecFix codecFixture

func codecFixtures(tb testing.TB) codecFixture {
	codecFixOnce.Do(func() {
		db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: testScale})
		if err != nil {
			codecFix.err = err
			return
		}
		mined, err := core.MineRegions(db, core.DefaultMinSupport)
		if err != nil {
			codecFix.err = err
			return
		}
		t1, pm, err := core.BuildPatternFeatures(mined, core.DefaultMinSupport)
		if err != nil {
			codecFix.err = err
			return
		}
		codecFix.db = db
		codecFix.mined = mined
		codecFix.feats = &PatternFeatures{Table1: t1, Matrix: pm}
		codecFix.pdist = distance.PdistWorkers(pm.X, distance.Euclidean, 0)
	})
	if codecFix.err != nil {
		tb.Fatal(codecFix.err)
	}
	return codecFix
}

func BenchmarkArtifactCodecs(b *testing.B) {
	fx := codecFixtures(b)
	cases := []struct {
		name string
		gob  interface {
			encodeTo(*bytes.Buffer, any) error
			decodeFrom([]byte) (any, error)
		}
		flat flatCodec
		v    any
	}{
		{"corpus", gobCorpusBench{}, corpusCodec, fx.db},
		{"mine", gobBench[[]core.RegionPatterns]{}, mineCodec, fx.mined},
		{"matrices", gobBench[*PatternFeatures]{}, matricesCodec, fx.feats},
		{"pdist", gobBench[*distance.Condensed]{}, pdistCodec, fx.pdist},
	}
	for _, c := range cases {
		var gobBytes bytes.Buffer
		if err := c.gob.encodeTo(&gobBytes, c.v); err != nil {
			b.Fatal(err)
		}
		flatBytes, err := c.flat.AppendEncode(nil, c.v)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(c.name+"/gob-encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(gobBytes.Len()))
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := c.gob.encodeTo(&buf, c.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/gob-decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(gobBytes.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := c.gob.decodeFrom(gobBytes.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/flat-encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(flatBytes)))
			var dst []byte
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = c.flat.AppendEncode(dst[:0], c.v)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/flat-decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(flatBytes)))
			for i := 0; i < b.N; i++ {
				if _, err := c.flat.DecodeBytes(flatBytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gobBench adapts the retired gob path (what mineCodec & co. were
// before the flat codecs) for benchmarking against them.
type gobBench[T any] struct{}

func (gobBench[T]) encodeTo(buf *bytes.Buffer, v any) error {
	return gobCodec[T]{kind: "bench", version: 0}.Encode(buf, v)
}

func (gobBench[T]) decodeFrom(data []byte) (any, error) {
	return gobCodec[T]{kind: "bench", version: 0}.Decode(bytes.NewReader(data))
}

// gobCorpusBench is the retired corpus codec: recipedb.DB's gob pair
// coded the recipe slice and rebuilt the DB through recipedb.New.
type gobCorpusBench struct{}

func (gobCorpusBench) encodeTo(buf *bytes.Buffer, v any) error {
	return gob.NewEncoder(buf).Encode(v.(*recipedb.DB).Recipes())
}

func (gobCorpusBench) decodeFrom(data []byte) (any, error) {
	var recipes []recipedb.Recipe
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recipes); err != nil {
		return nil, err
	}
	return recipedb.New(recipes)
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
