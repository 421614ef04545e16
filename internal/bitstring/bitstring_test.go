package bitstring

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var s BitString
	if s.Len() != 0 {
		t.Fatalf("zero value Len = %d, want 0", s.Len())
	}
	if got := s.String(); got != "" {
		t.Fatalf("zero value String = %q, want empty", got)
	}
}

func TestAppendAndBit(t *testing.T) {
	s := New(0)
	pattern := []bool{true, false, false, true, true, true, false}
	for _, b := range pattern {
		s.AppendBit(b)
	}
	if s.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pattern))
	}
	for i, want := range pattern {
		if got := s.Bit(i); got != want {
			t.Errorf("Bit(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestAppendAcrossWordBoundary(t *testing.T) {
	s := New(0)
	for i := 0; i < 200; i++ {
		s.AppendBit(i%3 == 0)
	}
	for i := 0; i < 200; i++ {
		if got, want := s.Bit(i), i%3 == 0; got != want {
			t.Fatalf("Bit(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {5, 10}, {1023, 10}, {1 << 40, 41}, {^uint64(0), 64},
	}
	for _, c := range cases {
		s := New(0)
		s.AppendUint(c.v, c.width)
		if s.Len() != c.width {
			t.Errorf("AppendUint(%d,%d): Len = %d", c.v, c.width, s.Len())
		}
		if got := s.Uint(0, c.width); got != c.v {
			t.Errorf("Uint round trip (%d,%d) = %d", c.v, c.width, got)
		}
	}
}

func TestAppendUintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value that does not fit")
		}
	}()
	New(0).AppendUint(4, 2)
}

// TestSetBit: SetBit rewrites one bit in place, in either direction and
// in any word, leaves the others and the length alone, and panics past
// the end.
func TestSetBit(t *testing.T) {
	s, err := parse("1101" + strings.Repeat("0", 62) + "11")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, s.Len())
	for i := range want {
		want[i] = s.Bit(i)
	}
	for _, i := range []int{0, 2, 63, 64, 67} {
		want[i] = !want[i]
		s.SetBit(i, want[i])
	}
	if !s.Equal(fromBits(want)) || s.Len() != len(want) {
		t.Fatalf("after SetBit: %s, want %s", s, fromBits(want))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetBit past the end did not panic")
		}
	}()
	s.SetBit(s.Len(), true)
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0).Bit(0)
}

func TestSliceAndAppend(t *testing.T) {
	s, err := parse("1101001110")
	if err != nil {
		t.Fatal(err)
	}
	mid := s.Slice(2, 7)
	if got := mid.String(); got != "01001" {
		t.Fatalf("Slice = %q, want 01001", got)
	}
	joined := New(0)
	joined.Append(s.Slice(0, 2))
	joined.Append(mid)
	joined.Append(s.Slice(7, 10))
	if !joined.Equal(s) {
		t.Fatalf("re-joined %q != original %q", joined, s)
	}
}

func TestCloneIndependence(t *testing.T) {
	s, _ := parse("1010")
	c := s.Clone()
	c.AppendBit(true)
	if s.Len() != 4 || c.Len() != 5 {
		t.Fatalf("clone not independent: s=%d c=%d", s.Len(), c.Len())
	}
	if !s.Equal(s.Clone()) {
		t.Fatal("clone not equal to original")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := parse("10x1"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestReader(t *testing.T) {
	s := New(0)
	s.AppendUint(13, 4) // 1011 LSB-first
	s.AppendBit(true)
	s.AppendUint(300, 9)
	r := NewReader(s)
	if got := r.ReadUint(4); got != 13 {
		t.Fatalf("ReadUint(4) = %d, want 13", got)
	}
	if !r.ReadBit() {
		t.Fatal("ReadBit = false, want true")
	}
	if got := r.ReadUint(9); got != 300 {
		t.Fatalf("ReadUint(9) = %d, want 300", got)
	}
	if r.Pos() != s.Len() {
		t.Fatalf("Pos = %d, want %d", r.Pos(), s.Len())
	}
}

func TestWidthFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9}
	for v, want := range cases {
		if got := WidthFor(v); got != want {
			t.Errorf("WidthFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestChunksRoundTrip(t *testing.T) {
	a, _ := parse("101")
	b, _ := parse("1")
	c, _ := parse("001101")
	enc := Chunks([]*BitString{a, b, c})
	if enc.Len() != 2*(3+1+6) {
		t.Fatalf("encoded length %d, want %d (exactly double the payload)", enc.Len(), 2*(3+1+6))
	}
	dec, err := SplitChunks(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 || !dec[0].Equal(a) || !dec[1].Equal(b) || !dec[2].Equal(c) {
		t.Fatalf("decoded %v", dec)
	}
}

func TestChunksEmptyList(t *testing.T) {
	enc := Chunks(nil)
	if enc.Len() != 0 {
		t.Fatalf("empty chunk list should encode to empty string, got %d bits", enc.Len())
	}
	dec, err := SplitChunks(enc)
	if err != nil || len(dec) != 0 {
		t.Fatalf("decode empty: %v %v", dec, err)
	}
}

func TestSplitChunksErrors(t *testing.T) {
	odd, _ := parse("101")
	if _, err := SplitChunks(odd); err == nil {
		t.Fatal("expected error on odd length")
	}
	// Bitmap with no terminator for the trailing chunk: bitmap=00 payload=11.
	bad, _ := parse("0011")
	if _, err := SplitChunks(bad); err == nil {
		t.Fatal("expected error on unterminated chunk")
	}
}

// Property: String/Parse round trip is the identity.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		s := fromBits(bits)
		back, err := parse(s.String())
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: appending two strings concatenates their bits.
func TestQuickAppendConcat(t *testing.T) {
	f := func(a, b []bool) bool {
		s := fromBits(a)
		s.Append(fromBits(b))
		if s.Len() != len(a)+len(b) {
			return false
		}
		for i, want := range a {
			if s.Bit(i) != want {
				return false
			}
		}
		for i, want := range b {
			if s.Bit(len(a)+i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendUint/ReadUint round-trips for any value and sufficient width.
func TestQuickUintRoundTrip(t *testing.T) {
	f := func(v uint64, pre []bool) bool {
		w := WidthFor(v)
		s := fromBits(pre)
		s.AppendUint(v, w)
		r := &Reader{s: s, pos: len(pre)}
		return r.ReadUint(w) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: chunk encode/decode is the identity on non-empty chunk lists.
func TestQuickChunksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		k := rng.Intn(6)
		chunks := make([]*BitString, k)
		for i := range chunks {
			c := New(0)
			for j := 0; j <= rng.Intn(9); j++ {
				c.AppendBit(rng.Intn(2) == 0)
			}
			chunks[i] = c
		}
		dec, err := SplitChunks(Chunks(chunks))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(dec) != k {
			t.Fatalf("iter %d: got %d chunks, want %d", iter, len(dec), k)
		}
		for i := range chunks {
			if !dec[i].Equal(chunks[i]) {
				t.Fatalf("iter %d chunk %d: %q != %q", iter, i, dec[i], chunks[i])
			}
		}
	}
}

// Property: WidthFor(v) bits always suffice and WidthFor(v)-1 bits never do
// (for v needing more than one bit).
func TestQuickWidthForTight(t *testing.T) {
	f := func(v uint64) bool {
		w := WidthFor(v)
		if w < 64 && v>>uint(w) != 0 {
			return false
		}
		if v >= 2 && v>>(uint(w)-1) == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendBit(b *testing.B) {
	s := New(b.N)
	for i := 0; i < b.N; i++ {
		s.AppendBit(i&1 == 0)
	}
}

func BenchmarkUintField(b *testing.B) {
	s := New(64 * 100)
	for i := 0; i < 100; i++ {
		s.AppendUint(uint64(i)*2654435761, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Uint((i%100)*64, 64)
	}
}

func TestWordsZeroTail(t *testing.T) {
	s := New(0)
	s.AppendUint(0b1011, 4)
	words := s.Words()
	if len(words) != 1 || words[0] != 0b1011 {
		t.Fatalf("Words = %v, want [11]", words)
	}
	// Bits above Len() must be zero so appends after LoadWords stay correct.
	s.LoadWords([]uint64{^uint64(0)}, 3)
	if got := s.String(); got != "111" {
		t.Fatalf("LoadWords(all-ones, 3) = %q, want 111", got)
	}
	if s.Words()[0] != 0b111 {
		t.Fatalf("tail bits not masked: %x", s.Words()[0])
	}
	s.AppendBit(false)
	s.AppendBit(true)
	if got := s.String(); got != "11101" {
		t.Fatalf("append after LoadWords = %q, want 11101", got)
	}
}

func TestLoadWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		orig := New(n)
		for i := 0; i < n; i++ {
			orig.AppendBit(rng.Intn(2) == 1)
		}
		var back BitString
		back.LoadWords(orig.Words(), orig.Len())
		if !back.Equal(orig) {
			t.Fatalf("trial %d: round-trip mismatch at n=%d", trial, n)
		}
	}
}

func TestLoadWordsReusesArena(t *testing.T) {
	a := NewArena(4, 64)
	src := New(0)
	src.AppendUint(0xDEADBEEF, 48)
	for i := range a.strings {
		s := a.At(i)
		s.LoadWords(src.Words(), src.Len())
		if !s.Equal(src) {
			t.Fatalf("arena string %d differs after LoadWords", i)
		}
	}
}

func TestLoadWordsPanicsOnShortInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LoadWords with nbits > 64*len(words) did not panic")
		}
	}()
	var s BitString
	s.LoadWords([]uint64{0}, 65)
}

func TestNewRaggedArena(t *testing.T) {
	lens := []int{0, 1, 63, 64, 65, 0, 200}
	a := NewRaggedArena(slices.Values(lens))
	if len(a.strings) != len(lens) {
		t.Fatalf("arena length %d, want %d", len(a.strings), len(lens))
	}
	// Fill every string to its capacity; in-capacity appends must land in
	// the shared slab, and neighbours must not clobber each other.
	for i, n := range lens {
		s := a.At(i)
		for b := 0; b < n; b++ {
			s.AppendBit((b+i)%3 == 0)
		}
	}
	for i, n := range lens {
		s := a.At(i)
		if s.Len() != n {
			t.Fatalf("string %d: Len = %d, want %d", i, s.Len(), n)
		}
		for b := 0; b < n; b++ {
			if s.Bit(b) != ((b+i)%3 == 0) {
				t.Fatalf("string %d bit %d clobbered", i, b)
			}
		}
	}
}

// parse builds a BitString from a 0/1 string (inverse of String).
func parse(str string) (*BitString, error) {
	s := New(len(str))
	for i := 0; i < len(str); i++ {
		switch str[i] {
		case '0':
			s.AppendBit(false)
		case '1':
			s.AppendBit(true)
		default:
			return nil, fmt.Errorf("bitstring: invalid character %q at %d", str[i], i)
		}
	}
	return s, nil
}

// fromBits builds a BitString from a slice of booleans.
func fromBits(bits []bool) *BitString {
	s := New(len(bits))
	for _, b := range bits {
		s.AppendBit(b)
	}
	return s
}
