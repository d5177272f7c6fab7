package matrix

import (
	"encoding/binary"
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
