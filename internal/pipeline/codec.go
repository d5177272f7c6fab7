package pipeline

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"

	"cuisines/internal/artifact"
	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/encode"
	"cuisines/internal/kmeans"
)

// Stage artifacts are serialized either by the flat codecs of flat.go
// (corpus, mine, matrices, pdist, geodist) or with gob (auth, tree,
// elbow, validate). Every gob-coded type that hides state behind
// unexported fields (itemset.Set, matrix.Dense, distance.Condensed,
// hac.Tree) implements GobEncoder/GobDecoder, so the artifacts below
// round-trip faithfully — float64 values bit-exact, slices in order —
// which is what keeps warm-disk replays byte-identical to cold runs.
// Codec versions are part of both the disk header and the file name;
// bump a version whenever its encoded shape changes and old files are
// simply ignored.

// gobCodec is an artifact.Codec over one concrete Go type.
type gobCodec[T any] struct {
	kind    string
	version int
}

func (c gobCodec[T]) Kind() string { return c.kind }
func (c gobCodec[T]) Version() int { return c.version }

func (c gobCodec[T]) Encode(w io.Writer, v any) error {
	t, ok := v.(T)
	if !ok {
		return fmt.Errorf("pipeline: %s artifact is %T, want %T", c.kind, v, t)
	}
	return gob.NewEncoder(w).Encode(t)
}

func (c gobCodec[T]) Decode(r io.Reader) (any, error) {
	var t T
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	return t, nil
}

// PatternFeatures is the matrices-stage artifact: Table I and the
// pattern feature matrix, both derived from one mining run.
type PatternFeatures struct {
	Table1 *core.Table1
	Matrix *encode.PatternMatrix
}

// The stage codecs. Kind strings are the stage names reported by
// cachestats and used in artifact file names.
//
// Version history. Everything downstream of mine went to version 2 when
// the miner-backend layer tightened SortPatterns' tie-break (same-name
// items of different kinds are now ordered by the kind-aware set key).
// The large numeric artifacts — mine, matrices, pdist, geodist — then
// moved from gob to the flat codecs of flat.go (mine and matrices to
// version 3, pdist to 3, geodist to 2): a new encoded shape, so the
// bump orphans old gob files and a warm-disk restart recomputes them
// once instead of misreading them. Keys are unchanged — the flat
// encoding is a representation change, not a semantic one. The corpus
// followed to version 2 (interned names, one ID/Name blob), since its
// gob decode had come to dominate warm restarts. Validate went to
// version 3 when treecmp.Report's B_k scores became a slice: gob had
// walked the old map in random order, so one validation had many
// encodings, and a peer serving its stored frame must send the same
// bytes a re-encode would.
var (
	corpusCodec   = flatCodec{kind: "corpus", version: 2, appendFn: appendCorpus, decodeFn: decodeCorpus}
	mineCodec     = flatCodec{kind: "mine", version: 3, appendFn: appendMine, decodeFn: decodeMine}
	matricesCodec = flatCodec{kind: "matrices", version: 3, appendFn: appendMatrices, decodeFn: decodeMatrices}
	authCodec     = gobCodec[*authenticity.Matrix]{kind: "auth", version: 1}
	pdistCodec    = flatCodec{kind: "pdist", version: 3, appendFn: appendCondensed, decodeFn: decodeCondensed}
	geodistCodec  = flatCodec{kind: "geodist", version: 2, appendFn: appendCondensed, decodeFn: decodeCondensed}
	treeCodec     = gobCodec[*core.CuisineTree]{kind: "tree", version: 2}
	elbowCodec    = gobCodec[*kmeans.ElbowCurve]{kind: "elbow", version: 2}
	validateCodec = gobCodec[*core.Validation]{kind: "validate", version: 3}
)

// stage resolves one typed stage through the store: memory tier, disk
// tier, then compute, single-flight per key. The ctx check at the top
// is the pipeline's cancellation point — a cancelled run stops at the
// next stage boundary. Checking only between stages (never aborting a
// compute in progress) keeps every started stage's artifact cacheable,
// so the work a cancelled request did complete still serves the next
// request, and a stage shared with a healthy concurrent run is never
// poisoned by someone else's cancellation.
func stage[T any](ctx context.Context, s *artifact.Store, key string, codec artifact.Codec, compute func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	v, err := s.GetOrCompute(ctx, key, codec, func() (any, error) { return compute() })
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}

// CodecVersions reports the current codec version for every stage kind.
// `cuisined -doctor` uses it to inventory a cache directory: a file
// whose embedded version differs from the current one is orphaned (it
// will be ignored and recomputed, never misread).
func CodecVersions() map[string]int {
	out := make(map[string]int)
	for k, c := range Codecs() {
		out[k] = c.Version()
	}
	return out
}

// Codecs returns the current stage codecs by kind. The cluster layer
// uses it to frame and verify artifacts on the peer wire — the same
// codecs the disk tier uses, so a peer's bytes and a disk file are
// interchangeable.
func Codecs() map[string]artifact.Codec {
	out := make(map[string]artifact.Codec)
	for _, c := range []artifact.Codec{
		corpusCodec, mineCodec, matricesCodec, authCodec,
		pdistCodec, geodistCodec, treeCodec, elbowCodec, validateCodec,
	} {
		out[c.Kind()] = c
	}
	return out
}
