package matrix

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestDecodeFlatRejectsOverflowingDimensions pins the size check to
// exact arithmetic. Both dimensions below are under MaxInt32, but
// 16 + 8*rows*cols wraps past 2^64 to exactly the 537,568 bytes given,
// so a check done in wrapping int arithmetic accepts the header and
// then asks make for ~2^61 floats, which panics.
func TestDecodeFlatRejectsOverflowingDimensions(t *testing.T) {
	const rows, cols = 1<<31 - 46339, 1<<30 + 23170
	data := make([]byte, 537_568)
	binary.LittleEndian.PutUint64(data, rows)
	binary.LittleEndian.PutUint64(data[8:], cols)
	if _, err := DecodeFlat(data); err == nil {
		t.Fatal("wrapping dimensions accepted")
	}
}

func TestDecodeFlatRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, -0.5)
	got, err := DecodeFlat(m.AppendFlat(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 || got.Cols() != 3 || got.At(1, 2) != -0.5 {
		t.Fatalf("round trip = %v", got)
	}
	for _, cut := range []int{0, 15, 16 + 8*6 - 1} {
		if _, err := DecodeFlat(m.AppendFlat(nil)[:cut]); err == nil {
			t.Errorf("payload cut to %d bytes accepted", cut)
		}
	}
}

// TestDenseGobRoundTrip keeps the name of the gob round trip that the
// flat codec replaced: Dense still reaches the artifact store, now
// through AppendFlat/DecodeFlat, and every value must come back
// bit-exactly, subnormal-scale and zero entries included.
func TestDenseGobRoundTrip(t *testing.T) {
	m := NewDense(3, 2)
	vals := []float64{0.1, -2.5, math.Pi, 1e-300, 0, 42}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			m.Set(i, j, vals[i*2+j])
		}
	}
	got, err := DecodeFlat(m.AppendFlat(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 3 || got.Cols() != 2 {
		t.Fatalf("round trip changed shape: %dx%d", got.Rows(), got.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(m.At(i, j)) {
				t.Errorf("(%d,%d): got %v, want %v", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

// TestDenseGobRejectsCorruptShape keeps the name of the gob shape check
// that the flat codec replaced: a header claiming 2x2 over one value is
// an error, not a short or padded matrix.
func TestDenseGobRejectsCorruptShape(t *testing.T) {
	data := binary.LittleEndian.AppendUint64(nil, 2)
	data = binary.LittleEndian.AppendUint64(data, 2)
	data = binary.LittleEndian.AppendUint64(data, math.Float64bits(1))
	if _, err := DecodeFlat(data); err == nil {
		t.Fatal("decode of mismatched shape succeeded, want error")
	}
}
