package pipeline

import (
	"bytes"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/distance"
	"cuisines/internal/geo"
	"cuisines/internal/hac"
	"cuisines/internal/itemset"
	"cuisines/internal/kmeans"
	"cuisines/internal/matrix"
	"cuisines/internal/recipedb"
)

// fuzzCodec is the shared body of the flat-decoder fuzz targets. It
// seeds f with v's frame and body, their truncations and single-bit
// flips, then treats every input twice: as a store frame read off disk
// or the peer wire, and as a body that a hostile peer framed with valid
// checksums. Either way the decode must fail cleanly or yield a value
// whose re-encoded frame is a prefix of the input (frames may carry
// trailing bytes past their payload, which the store ignores). It must
// never panic.
func fuzzCodec(f *testing.F, c flatCodec, v any) {
	frame, err := artifact.EncodeFrame(c, v)
	if err != nil {
		f.Fatal(err)
	}
	body, err := c.appendFn(nil, v)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{frame, body} {
		f.Add(seed)
		for _, n := range []int{0, 8, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:n])
		}
		for _, i := range []int{0, len(seed) / 3, len(seed) / 2, len(seed) - 1} {
			flipped := bytes.Clone(seed)
			flipped[i] ^= 0x01
			f.Add(flipped)
		}
	}

	check := func(t *testing.T, frame []byte) {
		v, err := artifact.DecodeFrame(frame, c)
		if err != nil {
			return
		}
		again, err := artifact.EncodeFrame(c, v)
		if err != nil {
			t.Fatalf("re-encode of a decoded %s artifact failed: %v", c.kind, err)
		}
		if !bytes.HasPrefix(frame, again) {
			t.Fatalf("decoded %s artifact re-encodes to different bytes:\n in  %x\n out %x", c.kind, frame, again)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		check(t, hostileFrame(t, c, data))
	})
}

// fuzzDB is a three-recipe corpus over two regions whose ingredient,
// process and utensil lists exercise every corpus section.
func fuzzDB(tb testing.TB) *recipedb.DB {
	db, err := recipedb.New([]recipedb.Recipe{
		{ID: "r1", Name: "Stew", Region: "French", Ingredients: []string{"beef", "wine"}, Processes: []string{"simmer"}, Utensils: []string{"pot"}},
		{ID: "r2", Name: "Fry", Region: "Chinese", Ingredients: []string{"soy sauce", "wine"}, Processes: []string{"heat"}},
		{ID: "r3", Name: "Salad", Region: "French", Ingredients: []string{"lettuce"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// fuzzFeatures mines fuzzDB and builds its pattern features.
func fuzzFeatures(f *testing.F) ([]core.RegionPatterns, *PatternFeatures) {
	mined, err := core.MineRegions(fuzzDB(f), 1)
	if err != nil {
		f.Fatal(err)
	}
	t1, pm, err := core.BuildPatternFeatures(mined, 1)
	if err != nil {
		f.Fatal(err)
	}
	return mined, &PatternFeatures{Table1: t1, Matrix: pm}
}

func FuzzDecodeCorpus(f *testing.F) {
	fuzzCodec(f, corpusCodec, fuzzDB(f))
}

func FuzzDecodeMine(f *testing.F) {
	mined, _ := fuzzFeatures(f)
	fuzzCodec(f, mineCodec, mined)
}

func FuzzDecodeMatrices(f *testing.F) {
	_, feats := fuzzFeatures(f)
	fuzzCodec(f, matricesCodec, feats)
}

// FuzzDecodeCondensed covers the codec behind both the pdist and the
// geodist artifacts.
func FuzzDecodeCondensed(f *testing.F) {
	_, feats := fuzzFeatures(f)
	fuzzCodec(f, pdistCodec, distance.Pdist(feats.Matrix.X, distance.Cosine))
}

// FuzzDecodeAuth seeds from fuzzDB's prevalence matrix over every item
// kind.
func FuzzDecodeAuth(f *testing.F) {
	am, err := authenticity.Build(fuzzDB(f), authenticity.Options{Kinds: itemset.Kinds()})
	if err != nil {
		f.Fatal(err)
	}
	fuzzCodec(f, authCodec, am)
}

// fuzzGeoTree links the geographic tree over every region. The tree,
// elbow and validate targets seed from it and from the region
// coordinates rather than from a pipeline run, which under the fuzzer's
// coverage instrumentation would spend most of a short fuzz budget.
func fuzzGeoTree(f *testing.F) *core.CuisineTree {
	names := geo.RegionNames()
	d, err := geo.DistanceMatrix(names)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := linkTree("geographic", d, names, distance.Euclidean, hac.Average)
	if err != nil {
		f.Fatal(err)
	}
	return ct
}

func FuzzDecodeTree(f *testing.F) {
	fuzzCodec(f, treeCodec, fuzzGeoTree(f))
}

// FuzzDecodeElbow seeds from the elbow curve of the region coordinates.
func FuzzDecodeElbow(f *testing.F) {
	var rows [][]float64
	for _, r := range geo.Regions() {
		rows = append(rows, []float64{r.Lat, r.Lon})
	}
	curve, err := kmeans.Elbow(matrix.FromRows(rows), core.ElbowKMax, kmeans.Options{Seed: core.ElbowSeed})
	if err != nil {
		f.Fatal(err)
	}
	fuzzCodec(f, elbowCodec, curve)
}

// FuzzDecodeValidate seeds from a full validation whose five trees are
// all the geographic one.
func FuzzDecodeValidate(f *testing.F) {
	ct := fuzzGeoTree(f)
	v, err := core.Validate(&core.Figures{Euclidean: ct, Cosine: ct, Jaccard: ct, Auth: ct, Geo: ct})
	if err != nil {
		f.Fatal(err)
	}
	fuzzCodec(f, validateCodec, v)
}
