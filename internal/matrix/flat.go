package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Flat codec: the artifact store's replacement for gob on Dense
// (DESIGN.md §10). The layout is little-endian and position-defined —
//
//	u64 rows | u64 cols | rows*cols × f64 (IEEE 754 bits, row-major)
//
// — so decoding is a bounds check plus one []float64 allocation filled
// by a straight scan, instead of gob's reflection walk over a temporary
// wire struct. Float values round-trip bit-exactly (encoded via
// math.Float64bits), which warm-disk pipeline replays depend on.

const flatHeaderSize = 16

// FlatSize returns the exact AppendFlat encoding size in bytes.
func (m *Dense) FlatSize() int { return flatHeaderSize + 8*len(m.data) }

// AppendFlat appends the flat encoding of m to dst and returns the
// extended slice.
func (m *Dense) AppendFlat(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.rows))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.cols))
	for _, v := range m.data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeFlat decodes an AppendFlat encoding. The whole payload must be
// present and exactly sized; anything else is an error (the artifact
// store treats codec errors as cache misses and recomputes).
func DecodeFlat(data []byte) (*Dense, error) {
	if len(data) < flatHeaderSize {
		return nil, fmt.Errorf("matrix: flat payload truncated: %d bytes", len(data))
	}
	rows := binary.LittleEndian.Uint64(data)
	cols := binary.LittleEndian.Uint64(data[8:])
	// Compare element counts, not byte counts: with both dimensions
	// capped, rows*cols fits a uint64, but 16+8*rows*cols can wrap
	// around to a crafted payload length and size a huge allocation.
	body := data[flatHeaderSize:]
	if rows > math.MaxInt32 || cols > math.MaxInt32 || len(body)%8 != 0 || rows*cols != uint64(len(body)/8) {
		return nil, fmt.Errorf("matrix: flat payload %d bytes does not hold %dx%d values", len(data), rows, cols)
	}
	n := int(rows * cols)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return &Dense{rows: int(rows), cols: int(cols), data: out}, nil
}
