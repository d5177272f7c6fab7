package pipeline

import (
	"context"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/encode"
)

// Every stage artifact is serialized by a flat codec of flat.go, whose
// decoder accepts only the bytes its encoder writes for a value the
// pipeline can build, so no peer or disk file can plant a value the
// serving code would trip over. Codec versions are part of both the
// disk header and the file name; bump a version whenever its encoded
// shape changes and old files are simply ignored.

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
// The artifacts were gob-coded at first. The large numeric ones — mine,
// matrices, pdist, geodist — then moved to flat codecs (mine and
// matrices to version 3, pdist to 3, geodist to 2): a new encoded
// shape, so the bump orphans old gob files and a warm-disk restart
// recomputes them once instead of misreading them. Keys are unchanged
// — the flat encoding is a representation change, not a semantic one.
// The corpus followed to version 2 (interned names, one ID/Name blob),
// since its gob decode had come to dominate warm restarts. Validate went
// to version 3 when treecmp.Report's B_k scores became a slice: gob had
// walked the old map in random order, so one validation had many
// encodings, and a peer serving its stored frame must send the same
// bytes a re-encode would. The last gob codecs then went flat, with
// keys again unchanged: auth to version 2, tree 3, elbow 3, validate 4.
// Tree 4: the distances section went; the matrix is the pdist or
// geodist artifact the tree's key names.
var (
	corpusCodec   = flatCodec{kind: "corpus", version: 2, appendFn: appendCorpus, decodeFn: decodeCorpus}
	mineCodec     = flatCodec{kind: "mine", version: 3, appendFn: appendMine, decodeFn: decodeMine}
	matricesCodec = flatCodec{kind: "matrices", version: 3, appendFn: appendMatrices, decodeFn: decodeMatrices}
	authCodec     = flatCodec{kind: "auth", version: 2, appendFn: appendAuth, decodeFn: decodeAuth}
	pdistCodec    = flatCodec{kind: "pdist", version: 3, appendFn: appendCondensed, decodeFn: decodeCondensed}
	geodistCodec  = flatCodec{kind: "geodist", version: 2, appendFn: appendCondensed, decodeFn: decodeCondensed}
	treeCodec     = flatCodec{kind: "tree", version: 4, appendFn: appendTree, decodeFn: decodeTree}
	elbowCodec    = flatCodec{kind: "elbow", version: 3, appendFn: appendElbow, decodeFn: decodeElbow}
	validateCodec = flatCodec{kind: "validate", version: 4, appendFn: appendValidate, decodeFn: decodeValidate}
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
