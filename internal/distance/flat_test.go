package distance

import (
	"encoding/binary"
	"testing"
)

func TestDecodeFlatRoundTrip(t *testing.T) {
	c := NewCondensed(4)
	v := 0.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			v += 0.77
			c.Set(i, j, v)
		}
	}
	got, err := DecodeFlat(c.AppendFlat(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() {
		t.Fatalf("round trip changed n: got %d, want %d", got.N(), c.N())
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if got.At(i, j) != c.At(i, j) {
				t.Errorf("(%d,%d): got %v, want %v", i, j, got.At(i, j), c.At(i, j))
			}
		}
	}
}

// TestDecodeFlatRejectsCorruptLength requires the pair count to match
// n exactly: n=4 needs six values, and two (or seven) are an error.
func TestDecodeFlatRejectsCorruptLength(t *testing.T) {
	for _, pairs := range []int{2, 7} {
		data := binary.LittleEndian.AppendUint64(nil, 4)
		data = append(data, make([]byte, 8*pairs)...)
		if _, err := DecodeFlat(data); err == nil {
			t.Errorf("n=4 with %d values decoded, want error", pairs)
		}
	}
}
