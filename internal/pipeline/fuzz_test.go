package pipeline

import (
	"bytes"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/recipedb"
)

// FuzzDecodeCorpus treats every input twice: as a store frame read off
// disk or the peer wire, and as a corpus body that a hostile peer framed
// with valid checksums. Either way the decode must fail cleanly or
// yield a DB whose re-encoded frame is exactly the input's (frames may
// carry trailing bytes past their payload, which the store ignores).
// It must never panic.
func FuzzDecodeCorpus(f *testing.F) {
	db, err := recipedb.New([]recipedb.Recipe{
		{ID: "r1", Name: "Stew", Region: "French", Ingredients: []string{"beef", "wine"}, Processes: []string{"simmer"}, Utensils: []string{"pot"}},
		{ID: "r2", Name: "Fry", Region: "Chinese", Ingredients: []string{"soy sauce", "wine"}, Processes: []string{"heat"}},
		{ID: "r3", Name: "Salad", Region: "French", Ingredients: []string{"lettuce"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	frame, err := artifact.EncodeFrame(corpusCodec, db)
	if err != nil {
		f.Fatal(err)
	}
	body := appendRecipes(nil, db.Recipes())
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
		v, err := artifact.DecodeFrame(frame, corpusCodec)
		if err != nil {
			return
		}
		again, err := artifact.EncodeFrame(corpusCodec, v)
		if err != nil {
			t.Fatalf("re-encode of a decoded corpus failed: %v", err)
		}
		if !bytes.HasPrefix(frame, again) {
			t.Fatalf("decoded corpus re-encodes to different bytes:\n in  %x\n out %x", frame, again)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		check(t, hostileFrame(t, corpusCodec, data))
	})
}
