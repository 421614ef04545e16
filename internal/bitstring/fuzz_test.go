package bitstring

import (
	"testing"
)

// FuzzParse: parsing arbitrary strings either fails cleanly or
// round-trips through String.
func FuzzParse(f *testing.F) {
	f.Add("")
	f.Add("0")
	f.Add("10110")
	f.Add("abc")
	f.Add("01x")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := parse(in)
		if err != nil {
			return
		}
		if s.String() != in {
			t.Fatalf("round trip changed %q to %q", in, s.String())
		}
		back, err := parse(s.String())
		if err != nil || !back.Equal(s) {
			t.Fatal("double round trip failed")
		}
	})
}

// FuzzSplitChunks: decoding arbitrary bit strings never panics, and
// whatever decodes must re-encode to the same string.
func FuzzSplitChunks(f *testing.F) {
	f.Add("")
	f.Add("11")
	f.Add("0011")
	f.Add("101101")
	f.Add("1111")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := parse(in)
		if err != nil {
			return
		}
		chunks, err := SplitChunks(s)
		if err != nil {
			return
		}
		if !Chunks(chunks).Equal(s) {
			t.Fatalf("decode/encode of %q not the identity", in)
		}
	})
}

// FuzzUintField: any (value, width) pair with value fitting the width
// round-trips at any offset.
func FuzzUintField(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint8(0))
	f.Add(uint64(12345), uint8(20), uint8(3))
	f.Fuzz(func(t *testing.T, v uint64, widthRaw, padRaw uint8) {
		width := int(widthRaw%64) + 1
		if width < 64 && v>>uint(width) != 0 {
			return
		}
		pad := int(padRaw % 17)
		s := New(0)
		for i := 0; i < pad; i++ {
			s.AppendBit(i%2 == 0)
		}
		s.AppendUint(v, width)
		if got := s.Uint(pad, width); got != v {
			t.Fatalf("Uint(%d,%d) = %d, want %d", pad, width, got, v)
		}
	})
}
