package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/distance"
	"cuisines/internal/hac"
	"cuisines/internal/itemset"
	"cuisines/internal/matrix"
	"cuisines/internal/recipedb"
)

// roundTrip encodes v with c and decodes the result.
func roundTrip(t *testing.T, c flatCodec, v any) any {
	t.Helper()
	data, err := c.AppendEncode(nil, v)
	if err != nil {
		t.Fatalf("%s encode: %v", c.kind, err)
	}
	got, err := c.DecodeBytes(data)
	if err != nil {
		t.Fatalf("%s decode: %v", c.kind, err)
	}
	return got
}

// TestFlatRoundTripIdentity locks every stage codec to an exact round
// trip: decoding an encoded artifact must reproduce it — every recipe,
// pattern, count, label, merge and bit-exact float — and re-encode to
// the same bytes. The corpus must also agree with what the retired gob
// path produced.
func TestFlatRoundTripIdentity(t *testing.T) {
	fx := codecFixtures(t)

	t.Run("corpus", func(t *testing.T) {
		got := roundTrip(t, corpusCodec, fx.db).(*recipedb.DB)
		if ContentKey(got) != ContentKey(fx.db) {
			t.Error("corpus: content key changed in flat round-trip")
		}
		// Stored order, list order and nil-for-empty lists all survive.
		if !reflect.DeepEqual(got.Recipes(), fx.db.Recipes()) {
			t.Error("corpus: recipes differ after flat round-trip")
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(fx.db.Recipes()); err != nil {
			t.Fatal(err)
		}
		var gobGot []recipedb.Recipe
		if err := gob.NewDecoder(&buf).Decode(&gobGot); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Recipes(), gobGot) {
			t.Error("corpus: flat round-trip differs from gob round-trip")
		}
		if !reflect.DeepEqual(got.Regions(), fx.db.Regions()) {
			t.Fatalf("corpus: regions %v, want %v", got.Regions(), fx.db.Regions())
		}
		for _, region := range fx.db.Regions() {
			if got.RegionSize(region) != fx.db.RegionSize(region) {
				t.Errorf("corpus: region index not rebuilt: %s has %d recipes, want %d",
					region, got.RegionSize(region), fx.db.RegionSize(region))
			}
		}
	})

	feats := fx.feats
	gotF := roundTrip(t, matricesCodec, feats).(*PatternFeatures)
	if gotF.Table1.String() != feats.Table1.String() {
		t.Error("matrices: Table1 differs after flat round-trip")
	}
	if !reflect.DeepEqual(gotF.Matrix.Regions, feats.Matrix.Regions) ||
		!reflect.DeepEqual(gotF.Matrix.Vocabulary, feats.Matrix.Vocabulary) {
		t.Error("matrices: labels differ after flat round-trip")
	}
	if !reflect.DeepEqual(gotF.Matrix.X, feats.Matrix.X) {
		t.Error("matrices: feature matrix differs after flat round-trip")
	}

	for _, c := range []struct {
		codec flatCodec
		v     any
	}{
		{mineCodec, fx.mined},
		{pdistCodec, fx.pdist},
		{authCodec, fx.auth},
		{treeCodec, fx.tree},
		{elbowCodec, fx.elbow},
		{validateCodec, fx.validate},
	} {
		if got := roundTrip(t, c.codec, c.v); !reflect.DeepEqual(got, c.v) {
			t.Errorf("%s: flat round-trip differs from original", c.codec.kind)
		}
	}
	for _, c := range fx.codecCases() {
		data, err := c.codec.AppendEncode(nil, c.v)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := c.codec.AppendEncode(nil, roundTrip(t, c.codec, c.v)); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: decoded artifact re-encodes to different bytes (%v)", c.codec.kind, err)
		}
	}
}

// TestFlatDecodeRejectsDamage feeds the decoder every damage class the
// disk tier can hand it — truncations at each boundary, a flipped body
// byte, bad magic, trailing garbage — and requires an error each time
// (the store maps codec errors to cache misses; a malformed Set or a
// silent wrong answer would poison everything downstream).
func TestFlatDecodeRejectsDamage(t *testing.T) {
	fx := codecFixtures(t)
	for _, tc := range fx.codecCases() {
		data, err := tc.codec.AppendEncode(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		name := tc.codec.kind
		// Truncation at every prefix length would be slow for MB
		// payloads; probe the structural boundaries and a spread.
		cuts := []int{0, 3, 4, 7, 8, 9, len(data) / 4, len(data) / 2, len(data) - 1}
		for _, n := range cuts {
			if n >= len(data) {
				continue
			}
			if _, err := tc.codec.DecodeBytes(data[:n]); err == nil {
				t.Errorf("%s: truncation to %d bytes decoded without error", name, n)
			}
		}
		for _, flip := range []int{0, 5, 8 + (len(data)-8)/2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[flip] ^= 0x40
			if _, err := tc.codec.DecodeBytes(bad); err == nil {
				t.Errorf("%s: flipped byte %d decoded without error", name, flip)
			}
		}
		if _, err := tc.codec.DecodeBytes(append(append([]byte(nil), data...), 0xEE)); err == nil {
			t.Errorf("%s: trailing garbage decoded without error", name)
		}
	}
}

// TestFlatCorruptDiskArtifactRecomputes is the store-level half of the
// damage story: corrupt the artifact file on disk, restart the store,
// and the stage must silently recompute — never fail, never serve the
// corrupted value.
func TestFlatCorruptDiskArtifactRecomputes(t *testing.T) {
	mined := codecFixtures(t).mined
	dir := t.TempDir()
	key := artifact.Key("mine", "flat-corrupt-test")

	s := artifact.NewStore(artifact.Options{Dir: dir})
	computes := 0
	compute := func() (any, error) { computes++; return mined, nil }
	if _, err := s.GetOrCompute(context.Background(), key, mineCodec, compute); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("cold run computed %d times", computes)
	}

	files, err := filepath.Glob(filepath.Join(dir, "mine-*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("artifact files on disk: %v (err %v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the payload body, past the store's header.
	data[len(data)-10] ^= 0x01
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := artifact.NewStore(artifact.Options{Dir: dir})
	v, err := s2.GetOrCompute(context.Background(), key, mineCodec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 2 {
		t.Errorf("corrupted warm-disk run computed %d times, want 2 (recompute)", computes)
	}
	if !reflect.DeepEqual(v, mined) {
		t.Error("recomputed artifact differs from original")
	}
	if st := s2.Stats()["mine"]; st.DiskHits != 0 {
		t.Errorf("corrupted artifact counted as disk hit: %+v", st)
	}
}

// oldGobCodec is the "old binary" of a version-bump test: it writes a
// gob payload under a kind's previous codec version, as the gob-era
// codecs did.
type oldGobCodec struct {
	kind    string
	version int
}

func (c oldGobCodec) Kind() string { return c.kind }
func (c oldGobCodec) Version() int { return c.version }

func (c oldGobCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return append(dst, buf.Bytes()...), nil
}

func (c oldGobCodec) DecodeBytes([]byte) (any, error) {
	return nil, fmt.Errorf("the old binary never reads in this test")
}

// TestFlatVersionBumpWarmRestart locks the upgrade path every move
// onto a flat codec takes: a store directory holding only old-version
// artifacts (the gob era) must be treated as cold by the bumped flat
// codecs — recompute once, write the new file, then serve warm from it.
func TestFlatVersionBumpWarmRestart(t *testing.T) {
	fx := codecFixtures(t)
	for _, tc := range []struct {
		// oldV is what the old binary stored. Where the type still
		// gob-encodes (the corpus's recipes, the elbow curve, the
		// validation) it is the artifact itself; mine, auth and tree
		// hold types whose gob encoders left with the gob path, so
		// their old files carry a part of the artifact instead. The
		// version check refuses a file before its payload is read.
		oldV  any
		codec flatCodec
		v     any
	}{
		{fx.db.Recipes(), corpusCodec, fx.db},
		{fx.feats.Matrix.Regions, mineCodec, fx.mined},
		{fx.auth.Items, authCodec, fx.auth},
		{fx.tree.Tree.Labels, treeCodec, fx.tree},
		{fx.elbow, elbowCodec, fx.elbow},
		{fx.validate, validateCodec, fx.validate},
	} {
		name := tc.codec.kind
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := artifact.Key(name, "flat-version-test")
			s := artifact.NewStore(artifact.Options{Dir: dir})
			old := oldGobCodec{kind: name, version: tc.codec.version - 1}
			if _, err := s.GetOrCompute(context.Background(), key, old, func() (any, error) { return tc.oldV, nil }); err != nil {
				t.Fatal(err)
			}
			if files, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("%s-v%d-*.art", name, old.version))); len(files) != 1 {
				t.Fatalf("old binary left %d %s files, want 1", len(files), name)
			}

			// The "new binary" restarts over the same directory.
			computes := 0
			compute := func() (any, error) { computes++; return tc.v, nil }
			s2 := artifact.NewStore(artifact.Options{Dir: dir})
			v, err := s2.GetOrCompute(context.Background(), key, tc.codec, compute)
			if err != nil {
				t.Fatal(err)
			}
			if computes != 1 {
				t.Fatalf("version-bumped warm restart computed %d times, want 1", computes)
			}
			if !sameArtifact(v, tc.v) {
				t.Error("recomputed artifact differs from original")
			}

			// Second restart: the new-version file written above must now hit.
			s3 := artifact.NewStore(artifact.Options{Dir: dir})
			v, err = s3.GetOrCompute(context.Background(), key, tc.codec, compute)
			if err != nil {
				t.Fatal(err)
			}
			if computes != 1 {
				t.Errorf("second warm restart recomputed (computes=%d); flat file not served", computes)
			}
			if !sameArtifact(v, tc.v) {
				t.Error("flat warm-disk artifact differs from original")
			}
			if st := s3.Stats()[name]; st.DiskHits != 1 {
				t.Errorf("flat warm-disk load not counted as disk hit: %+v", st)
			}
		})
	}
}

// sameArtifact is reflect.DeepEqual, except that DBs compare by their
// recipes: a DB's vocabulary is a cache built on first use, so the
// pipeline's corpus holds one and a freshly decoded corpus does not.
func sameArtifact(a, b any) bool {
	if da, ok := a.(*recipedb.DB); ok {
		db, ok := b.(*recipedb.DB)
		return ok && reflect.DeepEqual(da.Recipes(), db.Recipes())
	}
	return reflect.DeepEqual(a, b)
}

// TestPoisonedValidateFrameRecomputes is the regression test for a
// poisoned analysis cache. A peer answers every artifact of a warm
// node correctly except the validation, for which it sends a frame
// that passes the store's checks: the current validate kind and
// version, a valid sha256, and as payload the gob encoding of a
// Validation whose fit has no Report — what a gob-coded validate stage
// would decode and serve until a nil dereference. The frame must be
// refused: the stage recomputes, every fit has a Report, and the run
// renders exactly as a cold run.
func TestPoisonedValidateFrameRecomputes(t *testing.T) {
	ctx := context.Background()
	pr := testParams(hac.Average, 0)
	warm := New(nil)
	cold, err := warm.Run(ctx, pr)
	if err != nil {
		t.Fatal(err)
	}
	poison, err := artifact.EncodeFrame(oldGobCodec{kind: "validate", version: validateCodec.version},
		&core.Validation{TreeFit: []core.TreeFit{{Name: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.VerifyFrame(poison, validateCodec); err != nil {
		t.Fatalf("poisoned frame fails the store's checks, so this test proves nothing: %v", err)
	}

	s := artifact.NewStore(artifact.Options{})
	s.SetFetcher(func(_ context.Context, key string, c artifact.Codec) ([]byte, bool) {
		if c.Kind() == "validate" {
			return poison, true
		}
		frame, src := warm.Store().Encoded(key, c)
		return frame, src != artifact.ServeMiss
	})
	got, err := New(s).Run(ctx, pr)
	if err != nil {
		t.Fatal(err)
	}
	for kind, st := range s.Stats() {
		want := uint64(0)
		if kind == "validate" {
			want = 1
		}
		if st.Computed != want {
			t.Errorf("%s computed %d times, want %d (%+v)", kind, st.Computed, want, st)
		}
	}
	for _, f := range got.Validation.TreeFit {
		if f.Report == nil {
			t.Fatalf("fit %q has no report", f.Name)
		}
	}
	if snapshot(t, got) != snapshot(t, cold) {
		t.Error("run over a poisoned peer renders differently from a cold run")
	}
}

// hostileFrame frames body as a hostile peer could: under c's kind and
// version, with a valid crc32c and sha256, so that only c's decoder
// stands between the body and the caller.
func hostileFrame(tb testing.TB, c flatCodec, body []byte) []byte {
	tb.Helper()
	c.appendFn = func(dst []byte, v any) ([]byte, error) { return append(dst, v.([]byte)...), nil }
	frame, err := artifact.EncodeFrame(c, body)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestFlatDecodeRejectsInvalidCorpus feeds the corpus decoder bodies
// that pass both checksums but break a DB invariant or the canonical
// encoding. Each must fail to decode rather than build a broken DB or
// one that re-encodes differently.
func TestFlatDecodeRejectsInvalidCorpus(t *testing.T) {
	valid := []recipedb.Recipe{
		{ID: "r1", Name: "Stew", Region: "French", Ingredients: []string{"beef", "wine"}, Processes: []string{"simmer"}, Utensils: []string{"pot"}},
		{ID: "r2", Name: "Salad", Region: "French", Ingredients: []string{"lettuce"}},
	}
	withRecipe := func(r recipedb.Recipe) []byte {
		return appendRecipes(nil, append(append([]recipedb.Recipe(nil), valid...), r))
	}
	// oneRecipe hand-builds the body of recipe "x" whose region and
	// ingredients are names[ids[0]] and names[ids[1:]].
	oneRecipe := func(names []string, ids ...byte) []byte {
		body := []byte{1, byte(len(ids) - 1)}
		body = appendInterned(body, names)
		body = append(body, 1, 'x', 1, 0, ids[0], byte(len(ids)-1), 0, 0)
		return append(body, ids[1:]...)
	}

	validBody := appendRecipes(nil, valid)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty-region", withRecipe(recipedb.Recipe{ID: "r3", Ingredients: []string{"salt"}})},
		{"empty-id", withRecipe(recipedb.Recipe{Region: "French", Ingredients: []string{"salt"}})},
		{"no-ingredients", withRecipe(recipedb.Recipe{ID: "r3", Region: "French", Processes: []string{"heat"}})},
		{"duplicate-id", withRecipe(recipedb.Recipe{ID: "r1", Region: "French", Ingredients: []string{"salt"}})},
		{"duplicate-name", oneRecipe([]string{"a", "a"}, 0, 1)},
		{"name-out-of-order", oneRecipe([]string{"a", "b"}, 1, 0)},
		{"unused-name", oneRecipe([]string{"a", "b", "c"}, 0, 1)},
		{"trailing-byte", append(append([]byte(nil), validBody...), 0)},
		{"overlong-count", append([]byte{0x82, 0x00}, validBody[1:]...)},
	} {
		if _, err := artifact.DecodeFrame(hostileFrame(t, corpusCodec, tc.body), corpusCodec); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	for _, body := range [][]byte{validBody, oneRecipe([]string{"a", "b"}, 0, 1)} {
		if _, err := artifact.DecodeFrame(hostileFrame(t, corpusCodec, body), corpusCodec); err != nil {
			t.Errorf("valid body %x rejected: %v", body, err)
		}
	}
}

// TestFlatDecodeRejectsInvalidArtifacts feeds the tree, auth, elbow
// and validate decoders bodies that pass both checksums but hold a
// value the pipeline cannot build. Each must fail to decode; the valid
// body of each table must decode and re-encode to itself.
func TestFlatDecodeRejectsInvalidArtifacts(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	euc, avg := byte(distance.Euclidean), byte(hac.Average)
	// tree writes a tree body over labels whose distances cover n
	// leaves.
	tree := func(metric, linkage byte, labels []string, merges []hac.Merge, n int) []byte {
		body := append(appendString(nil, "t"), metric, linkage)
		body = appendInterned(body, labels)
		for _, m := range merges {
			body = u64(u32(u32(body, uint32(m.A)), uint32(m.B)), math.Float64bits(m.Height))
		}
		return distance.NewCondensed(n).AppendFlat(body)
	}
	abc := []string{"a", "b", "c"}
	merges := []hac.Merge{{A: 0, B: 1, Height: 1}, {A: 2, B: 3, Height: 2}}
	// auth writes an auth body whose prevalence matrix is rows × cols
	// of p.
	auth := func(regions []string, items []itemset.Item, rows, cols int, p float64) []byte {
		names := newInternTable()
		for _, it := range items {
			names.id(it.Name)
		}
		body := appendInterned(appendInterned(nil, regions), names.list)
		body = u32(body, uint32(len(items)))
		for _, it := range items {
			body = appendItem(body, it, names)
		}
		prev := matrix.NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				prev.Set(i, j, p)
			}
		}
		return prev.AppendFlat(body)
	}
	salt, soy := itemset.Item{Name: "salt"}, itemset.Item{Name: "soy"}
	saltP := itemset.Item{Name: "salt", Kind: itemset.Process}
	// elbow writes an elbow body of the given WCSS values.
	elbow := func(wcss ...float64) []byte {
		body := u32(nil, uint32(len(wcss)))
		for _, w := range wcss {
			body = u64(body, math.Float64bits(w))
		}
		return body
	}
	claim := func(holds byte) []byte {
		body := appendString(appendString(appendString(u32(u32(nil, 0), 1), "c"), "t"), "d")
		return append(body, holds)
	}
	for _, tc := range []struct {
		name  string
		codec flatCodec
		body  []byte
		ok    bool
	}{
		{"tree/valid", treeCodec, tree(euc, avg, abc, merges, 3), true},
		{"tree/distances-disagree", treeCodec, tree(euc, avg, abc, merges, 4), false},
		{"tree/missing-merge", treeCodec, tree(euc, avg, abc, merges[:1], 3), false},
		{"tree/extra-merge", treeCodec, tree(euc, avg, abc[:2], merges, 2), false},
		{"tree/unknown-cluster", treeCodec, tree(euc, avg, abc, []hac.Merge{merges[0], {A: 2, B: 9, Height: 2}}, 3), false},
		{"tree/merged-twice", treeCodec, tree(euc, avg, abc, []hac.Merge{merges[0], {A: 0, B: 3, Height: 2}}, 3), false},
		{"tree/no-leaves", treeCodec, tree(euc, avg, nil, nil, 0), false},
		{"tree/unknown-metric", treeCodec, tree(99, avg, abc, merges, 3), false},
		{"tree/unknown-linkage", treeCodec, tree(euc, 99, abc, merges, 3), false},
		{"auth/valid", authCodec, auth([]string{"A", "B"}, []itemset.Item{salt, saltP, soy}, 2, 3, 0.5), true},
		{"auth/items-out-of-order", authCodec, auth([]string{"A", "B"}, []itemset.Item{soy, salt}, 2, 2, 0.5), false},
		{"auth/kinds-out-of-order", authCodec, auth([]string{"A", "B"}, []itemset.Item{saltP, salt}, 2, 2, 0.5), false},
		{"auth/repeated-item", authCodec, auth([]string{"A", "B"}, []itemset.Item{salt, salt}, 2, 2, 0.5), false},
		{"auth/unknown-kind", authCodec, auth([]string{"A", "B"}, []itemset.Item{{Name: "salt", Kind: 7}}, 2, 1, 0.5), false},
		{"auth/regions-out-of-order", authCodec, auth([]string{"B", "A"}, []itemset.Item{salt}, 2, 1, 0.5), false},
		{"auth/too-few-rows", authCodec, auth([]string{"A", "B"}, []itemset.Item{salt}, 1, 1, 0.5), false},
		{"auth/too-many-cols", authCodec, auth([]string{"A", "B"}, []itemset.Item{salt}, 2, 2, 0.5), false},
		{"auth/prevalence-above-one", authCodec, auth([]string{"A", "B"}, []itemset.Item{salt}, 2, 1, 1.5), false},
		{"auth/prevalence-nan", authCodec, auth([]string{"A", "B"}, []itemset.Item{salt}, 2, 1, math.NaN()), false},
		{"elbow/valid", elbowCodec, elbow(9, 4, 2.5, 0), true},
		{"elbow/negative-wcss", elbowCodec, elbow(9, -4, 2.5), false},
		{"elbow/nan-wcss", elbowCodec, elbow(9, math.NaN(), 2.5), false},
		{"elbow/infinite-wcss", elbowCodec, elbow(math.Inf(1), 4), false},
		{"elbow/no-points", elbowCodec, elbow(), false},
		{"elbow/trailing-byte", elbowCodec, append(elbow(9, 4), 0), false},
		{"validate/valid", validateCodec, claim(1), true},
		{"validate/holds-byte", validateCodec, claim(2), false},
		{"validate/trailing-byte", validateCodec, append(claim(0), 0), false},
	} {
		frame := hostileFrame(t, tc.codec, tc.body)
		v, err := artifact.DecodeFrame(frame, tc.codec)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: decoded without error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		again, err := artifact.EncodeFrame(tc.codec, v)
		if err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%s: valid body does not re-encode to itself (%v)", tc.name, err)
		}
	}
}

// TestFlatDecodeBoundsAllocations sends each decoder a short body whose
// header counts claim far more elements than the body could hold. An
// arena sized from such a count would allocate tens of MiB; the decoder
// must reject the body while allocating almost nothing.
func TestFlatDecodeBoundsAllocations(t *testing.T) {
	const huge = 1 << 21
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	uv := binary.AppendUvarint
	noNames := appendInterned(nil, nil)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	emptyTable1 := cat(u64(nil, 0), u32(nil, 0), u64(nil, 0), u64(nil, 0), noNames)
	for _, tc := range []struct {
		name  string
		codec flatCodec
		body  []byte
	}{
		{"mine/regions", mineCodec, cat(u32(nil, huge), u64(nil, 0), u64(nil, 0), noNames)},
		{"mine/patterns", mineCodec, cat(u32(nil, 1), u64(nil, huge), u64(nil, 0), noNames)},
		{"mine/items", mineCodec, cat(u32(nil, 1), u64(nil, 0), u64(nil, huge), noNames)},
		{"mine/names", mineCodec, cat(u32(nil, 0), u64(nil, 0), u64(nil, 0), u32(nil, huge), u32(nil, 0))},
		{"matrices/rows", matricesCodec, cat(u64(nil, 0), u32(nil, huge), u64(nil, 0), u64(nil, 0), noNames)},
		{"matrices/top", matricesCodec, cat(u64(nil, 0), u32(nil, 0), u64(nil, huge), u64(nil, 0), noNames)},
		{"matrices/items", matricesCodec, cat(u64(nil, 0), u32(nil, 0), u64(nil, 0), u64(nil, huge), noNames)},
		{"matrices/regions", matricesCodec, cat(emptyTable1, u32(nil, huge))},
		{"corpus/recipes", corpusCodec, cat(uv(nil, huge), uv(nil, 0), noNames, uv(nil, 0))},
		{"corpus/entries", corpusCodec, cat(uv(nil, 0), uv(nil, huge), noNames, uv(nil, 0))},
		{"corpus/names", corpusCodec, cat(uv(nil, 0), uv(nil, 0), u32(nil, huge), u32(nil, 0), uv(nil, 0))},
		{"corpus/blob", corpusCodec, cat(uv(nil, 0), uv(nil, 0), noNames, uv(nil, huge))},
		{"auth/items", authCodec, cat(noNames, noNames, u32(nil, huge))},
		{"tree/labels", treeCodec, cat(appendString(nil, "t"), []byte{0, 0}, u32(nil, huge), u32(nil, 0))},
		{"tree/merges", treeCodec, cat(appendString(nil, "t"), []byte{0, 0}, appendInterned(nil, make([]string, 1<<12)))},
		{"elbow/points", elbowCodec, u32(nil, huge)},
		{"validate/fits", validateCodec, u32(nil, huge)},
		{"validate/bks", validateCodec, cat(u32(nil, 1), appendString(nil, "f"), u64(nil, 0), u64(nil, 0), u64(nil, 0), u32(nil, huge))},
		{"validate/claims", validateCodec, cat(u32(nil, 0), u32(nil, huge))},
	} {
		frame := hostileFrame(t, tc.codec, tc.body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := artifact.DecodeFrame(frame, tc.codec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: crafted %d-byte body decoded without error", tc.name, len(tc.body))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte body allocated %d bytes", tc.name, len(tc.body), d)
		}
	}
}

// TestFlatDecodeRejectsNonCanonicalNames pins the mine and matrices
// decoders to the intern table their encoders write: distinct names,
// each used, in first-seen order. Each crafted body below carries valid
// checksums and names a well-formed pattern {a, b}, but its table is
// not the canonical one, so accepting it would yield a value that
// re-encodes to different bytes.
func TestFlatDecodeRejectsNonCanonicalNames(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	// pattern writes the tail of pattern {a, b} whose items use ids.
	pattern := func(dst []byte, ids [2]uint32) []byte {
		dst = u64(dst, math.Float64bits(1))
		dst = u64(dst, 1)
		dst = u32(dst, 2)
		for _, id := range ids {
			dst = append(u32(dst, id), byte(itemset.Ingredient))
		}
		return dst
	}
	mine := func(names []string, ids [2]uint32) []byte {
		body := u64(u64(u32(nil, 1), 1), 2)
		body = appendInterned(body, names)
		body = u32(u64(appendString(body, "R"), 1), 1)
		return pattern(body, ids)
	}
	matrices := func(names []string, ids [2]uint32) []byte {
		body := u64(u64(u32(u64(nil, math.Float64bits(1)), 1), 1), 2)
		body = appendInterned(body, names)
		body = u32(u64(u64(appendString(body, "R"), 1), 1), 1)
		body = pattern(u64(body, math.Float64bits(1)), ids)
		body = appendString(u32(body, 1), "R")
		body = appendInterned(body, []string{"a+b"})
		return matrix.NewDense(1, 1).AppendFlat(body)
	}
	for _, tc := range []struct {
		name  string
		names []string
		ids   [2]uint32
		ok    bool
	}{
		{"canonical", []string{"a", "b"}, [2]uint32{0, 1}, true},
		{"unused name", []string{"a", "b", "c"}, [2]uint32{0, 1}, false},
		{"not first-seen order", []string{"b", "a"}, [2]uint32{1, 0}, false},
		{"repeated name", []string{"a", "b", "a"}, [2]uint32{0, 1}, false},
	} {
		for _, c := range []struct {
			codec flatCodec
			body  []byte
		}{
			{mineCodec, mine(tc.names, tc.ids)},
			{matricesCodec, matrices(tc.names, tc.ids)},
		} {
			frame := hostileFrame(t, c.codec, c.body)
			v, err := artifact.DecodeFrame(frame, c.codec)
			if !tc.ok {
				if err == nil {
					t.Errorf("%s/%s: non-canonical table accepted", c.codec.kind, tc.name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", c.codec.kind, tc.name, err)
			}
			again, err := artifact.EncodeFrame(c.codec, v)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("%s/%s: canonical body does not re-encode to itself (%v)", c.codec.kind, tc.name, err)
			}
		}
	}
}
