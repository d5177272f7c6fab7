package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/distance"
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

// TestFlatRoundTripIdentity locks the flat codecs to the gob semantics
// they replaced: a flat round-trip must reproduce the artifact exactly
// — every recipe, pattern, count and bit-exact float — and agree with
// what a gob round-trip of the same value produces.
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
		gobGot, err := gobCorpusBench{}.decodeFrom(mustGobCorpus(t, fx.db))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Recipes(), gobGot.(*recipedb.DB).Recipes()) {
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

	mined, feats, pd := fx.mined, fx.feats, fx.pdist
	got := roundTrip(t, mineCodec, mined).([]core.RegionPatterns)
	if !reflect.DeepEqual(got, mined) {
		t.Error("mine: flat round-trip differs from original")
	}
	gobGot, err := gobBench[[]core.RegionPatterns]{}.decodeFrom(mustGob(t, mined))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, gobGot) {
		t.Error("mine: flat round-trip differs from gob round-trip")
	}

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

	gotD := roundTrip(t, pdistCodec, pd).(*distance.Condensed)
	if !reflect.DeepEqual(gotD, pd) {
		t.Error("pdist: flat round-trip differs from original")
	}
}

func mustGobCorpus(t *testing.T, db *recipedb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (gobCorpusBench{}).encodeTo(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf strings.Builder
	if err := (gobCodec[[]core.RegionPatterns]{kind: "bench"}).Encode(&buf, v.([]core.RegionPatterns)); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

// TestFlatDecodeRejectsDamage feeds the decoder every damage class the
// disk tier can hand it — truncations at each boundary, a flipped body
// byte, bad magic, trailing garbage — and requires an error each time
// (the store maps codec errors to cache misses; a malformed Set or a
// silent wrong answer would poison everything downstream).
func TestFlatDecodeRejectsDamage(t *testing.T) {
	fx := codecFixtures(t)
	for _, tc := range []struct {
		name  string
		codec flatCodec
		v     any
	}{
		{"corpus", corpusCodec, fx.db},
		{"mine", mineCodec, fx.mined},
		{"matrices", matricesCodec, fx.feats},
		{"pdist", pdistCodec, fx.pdist},
	} {
		data, err := tc.codec.AppendEncode(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		// Truncation at every prefix length would be slow for MB
		// payloads; probe the structural boundaries and a spread.
		cuts := []int{0, 3, 4, 7, 8, 9, len(data) / 4, len(data) / 2, len(data) - 1}
		for _, n := range cuts {
			if n >= len(data) {
				continue
			}
			if _, err := tc.codec.DecodeBytes(data[:n]); err == nil {
				t.Errorf("%s: truncation to %d bytes decoded without error", tc.name, n)
			}
		}
		for _, flip := range []int{0, 5, 8 + (len(data)-8)/2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[flip] ^= 0x40
			if _, err := tc.codec.DecodeBytes(bad); err == nil {
				t.Errorf("%s: flipped byte %d decoded without error", tc.name, flip)
			}
		}
		if _, err := tc.codec.DecodeBytes(append(append([]byte(nil), data...), 0xEE)); err == nil {
			t.Errorf("%s: trailing garbage decoded without error", tc.name)
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

// TestFlatVersionBumpWarmRestart locks the upgrade path every move
// onto a flat codec takes: a store directory holding only old-version
// artifacts (the gob era) must be treated as cold by the bumped flat
// codecs — recompute once, write the new file, then serve warm from it.
func TestFlatVersionBumpWarmRestart(t *testing.T) {
	fx := codecFixtures(t)
	for _, tc := range []struct {
		name string
		// old is the "old binary": same kind, previous version, gob
		// encoding; oldV is the value it stored.
		old   artifact.Codec
		oldV  any
		codec flatCodec
		v     any
	}{
		{"corpus", gobCodec[[]recipedb.Recipe]{kind: "corpus", version: corpusCodec.version - 1}, fx.db.Recipes(), corpusCodec, fx.db},
		{"mine", gobCodec[[]core.RegionPatterns]{kind: "mine", version: mineCodec.version - 1}, fx.mined, mineCodec, fx.mined},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := artifact.Key(tc.name, "flat-version-test")
			s := artifact.NewStore(artifact.Options{Dir: dir})
			if _, err := s.GetOrCompute(context.Background(), key, tc.old, func() (any, error) { return tc.oldV, nil }); err != nil {
				t.Fatal(err)
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
			if !reflect.DeepEqual(v, tc.v) {
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
			if !reflect.DeepEqual(v, tc.v) {
				t.Error("flat warm-disk artifact differs from original")
			}
			if st := s3.Stats()[tc.name]; st.DiskHits != 1 {
				t.Errorf("flat warm-disk load not counted as disk hit: %+v", st)
			}
		})
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
