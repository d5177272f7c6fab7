package distance

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Flat codec of Condensed for the artifact store (DESIGN.md §10).
// Layout, little-endian:
//
//	u64 n | n*(n-1)/2 × f64 (IEEE 754 bits, condensed row-major)
//
// Decoding validates the triangular length and fills one []float64
// allocation; values round-trip bit-exactly.

// AppendFlat appends the flat encoding of c to dst and returns the
// extended slice.
func (c *Condensed) AppendFlat(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.n))
	for _, v := range c.d {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeFlat decodes an AppendFlat encoding. Any size or range mismatch
// is an error (the artifact store treats codec errors as cache misses).
func DecodeFlat(data []byte) (*Condensed, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("distance: flat payload truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	// Cap n before the triangular product to keep it overflow-safe.
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("distance: flat payload n=%d out of range", n)
	}
	pairs := int(n) * (int(n) - 1) / 2
	if len(data) != 8+8*pairs {
		return nil, fmt.Errorf("distance: flat payload %d bytes, want %d for n=%d", len(data), 8+8*pairs, n)
	}
	out := make([]float64, pairs)
	body := data[8:]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return &Condensed{n: int(n), d: out}, nil
}
