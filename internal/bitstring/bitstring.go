// Package bitstring implements compact bit strings used as advice payloads
// by the advising schemes of Fraigniaud, Korman and Lebhar (SPAA 2007).
//
// A BitString is a growable sequence of bits with O(1) random access.
// Bits are appended; the one in-place mutator, SetBit, is for a string
// its builder has not handed out yet (the oracle sets each node's final
// bit after packing its phase bits). A string handed out is never
// modified: a holder that needs a different string copies it first.
// A Reader is a consuming cursor over a BitString; it is the concrete
// realisation of the paper's cons(u, i) pointer ("how many advice bits node
// u has consumed so far"). Fixed-width unsigned integers provide the
// bin(j) encodings of the paper, and Chunks/SplitChunks implement the
// bitmap self-delimiting format of the Theorem 2 scheme ("a bit-map
// indicating the separation between the advices corresponding to different
// phases", which doubles the advice size).
//
// See DESIGN.md §2.5 for the arena-backed encoding discipline the
// oracle pipeline builds on top of this package.
package bitstring

import (
	"fmt"
	"iter"
	"strings"
)

// BitString is a growable sequence of bits. The zero value is an empty
// string ready for use. Bits are indexed from 0 in append order.
type BitString struct {
	words []uint64
	n     int
}

// New returns an empty BitString with capacity for at least n bits.
func New(n int) *BitString {
	if n < 0 {
		n = 0
	}
	return &BitString{words: make([]uint64, 0, (n+63)/64)}
}

// Len returns the number of bits in s.
func (s *BitString) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Bit returns the i-th bit. It panics if i is out of range.
func (s *BitString) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i/64]>>(uint(i)%64)&1 == 1
}

// SetBit sets bit i to b. It panics if i is out of range. Call it only
// on a string not yet handed out (see the package doc).
func (s *BitString) SetBit(i int, b bool) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, s.n))
	}
	if b {
		s.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		s.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// AppendBit appends a single bit.
func (s *BitString) AppendBit(b bool) {
	w, off := s.n/64, uint(s.n)%64
	if w == len(s.words) {
		s.words = append(s.words, 0)
	}
	if b {
		s.words[w] |= 1 << off
	}
	s.n++
}

// AppendUint appends the width lowest-order bits of v, least significant
// bit first. It panics if width is not in [0,64] or if v does not fit.
func (s *BitString) AppendUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstring: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitstring: value %d does not fit in %d bits", v, width))
	}
	for i := 0; i < width; i++ {
		s.AppendBit(v>>uint(i)&1 == 1)
	}
}

// Append appends all bits of t to s.
func (s *BitString) Append(t *BitString) {
	s.AppendRange(t, 0, t.Len())
}

// AppendRange appends bits [from, to) of t to s without allocating any
// intermediate string (the in-place replacement for Append(t.Slice(...))
// on the oracle's packing hot path).
func (s *BitString) AppendRange(t *BitString, from, to int) {
	if from < 0 || to < from || to > t.Len() {
		panic(fmt.Sprintf("bitstring: bad range [%d,%d) of %d", from, to, t.Len()))
	}
	for i := from; i < to; i++ {
		s.AppendBit(t.Bit(i))
	}
}

// Words returns the underlying 64-bit words of s, least significant bit
// first within each word; bits at positions >= Len() in the last word are
// zero. The returned slice aliases s and must not be modified. It is the
// word-at-a-time read path of the binary codec (internal/store), which
// would otherwise pay a per-bit call on every advice string.
func (s *BitString) Words() []uint64 {
	if s == nil {
		return nil
	}
	return s.words
}

// LoadWords replaces the contents of s with the first nbits bits of the
// given words (least significant bit first within each word). Storage is
// reused when the capacity allows — arena-backed strings stay inside
// their slab — and bits of the last word beyond nbits are masked off to
// preserve the invariant that bits above Len() are zero, so later appends
// stay correct. It is the word-at-a-time write path of the binary codec.
func (s *BitString) LoadWords(words []uint64, nbits int) {
	if nbits < 0 || nbits > 64*len(words) {
		panic(fmt.Sprintf("bitstring: LoadWords of %d bits from %d words", nbits, len(words)))
	}
	need := (nbits + 63) / 64
	if cap(s.words) >= need {
		s.words = s.words[:need]
	} else {
		s.words = make([]uint64, need)
	}
	copy(s.words, words[:need])
	if tail := uint(nbits) % 64; tail != 0 && need > 0 {
		s.words[need-1] &= 1<<tail - 1
	}
	s.n = nbits
}

// Reset truncates s to the empty string, keeping its capacity for reuse.
func (s *BitString) Reset() {
	s.words = s.words[:0]
	s.n = 0
}

// Slice returns a copy of bits [from, to).
func (s *BitString) Slice(from, to int) *BitString {
	if from < 0 || to < from || to > s.n {
		panic(fmt.Sprintf("bitstring: bad slice [%d,%d) of %d", from, to, s.n))
	}
	out := New(to - from)
	for i := from; i < to; i++ {
		out.AppendBit(s.Bit(i))
	}
	return out
}

// Clone returns a deep copy of s.
func (s *BitString) Clone() *BitString {
	out := New(s.n)
	out.words = append(out.words, s.words...)
	out.n = s.n
	return out
}

// Uint decodes the width bits starting at offset as an unsigned integer
// (least significant bit first, matching AppendUint).
func (s *BitString) Uint(offset, width int) uint64 {
	if width < 0 || width > 64 || offset < 0 || offset+width > s.n {
		panic(fmt.Sprintf("bitstring: bad field (off=%d,w=%d) of %d", offset, width, s.n))
	}
	var v uint64
	for i := 0; i < width; i++ {
		if s.Bit(offset + i) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Equal reports whether s and t hold identical bit sequences.
func (s *BitString) Equal(t *BitString) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i := 0; i < s.Len(); i++ {
		if s.Bit(i) != t.Bit(i) {
			return false
		}
	}
	return true
}

// String renders the bits as a 0/1 string in index order (debugging aid).
func (s *BitString) String() string {
	var b strings.Builder
	b.Grow(s.Len())
	for i := 0; i < s.Len(); i++ {
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Arena is a slab allocator for a fixed population of BitStrings with a
// common capacity, used by the oracle pipeline to hand out n per-node
// advice strings from two allocations instead of 2n. Every string starts
// empty with room for bitsPer bits; appending within that capacity never
// allocates (a string that outgrows it falls back to an ordinary heap
// append and stays correct).
type Arena struct {
	strings []BitString
	words   []uint64
	wpc     int // words per string
}

// NewRaggedArena returns an arena of one empty string per length bits
// yields, where string i has capacity for the i-th length's bits,
// packed back to back into one slab. It is the exact-size counterpart
// of NewArena for populations with known, non-uniform lengths (the
// store codec, which yields them from the encoded lengths instead of
// keeping a copy): the slab is Σ⌈bits[i]/64⌉ words, so a hostile length
// table can never make the arena allocate more than a constant factor
// of the input that declared it. bits is ranged twice, to size the
// slab and to carve it, and must yield the same lengths both times.
func NewRaggedArena(bits iter.Seq[int]) *Arena {
	count, total := 0, 0
	for b := range bits {
		count++
		total += (max(b, 0) + 63) / 64
	}
	a := &Arena{
		strings: make([]BitString, count),
		words:   make([]uint64, total),
	}
	i, off := 0, 0
	for b := range bits {
		w := (max(b, 0) + 63) / 64
		a.strings[i].words = a.words[off : off : off+w]
		off += w
		i++
	}
	return a
}

// NewArena returns an arena of count empty strings, each with capacity
// for bitsPer bits.
func NewArena(count, bitsPer int) *Arena {
	if count < 0 {
		count = 0
	}
	if bitsPer < 1 {
		bitsPer = 1
	}
	wpc := (bitsPer + 63) / 64
	a := &Arena{
		strings: make([]BitString, count),
		words:   make([]uint64, count*wpc),
		wpc:     wpc,
	}
	for i := range a.strings {
		a.strings[i].words = a.words[i*wpc : i*wpc : (i+1)*wpc]
	}
	return a
}

// At returns the i-th string. Distinct indices alias distinct storage, so
// concurrent appends to different indices are safe.
func (a *Arena) At(i int) *BitString { return &a.strings[i] }

// Reader is a consuming cursor over a BitString. It realises the paper's
// cons(u, i) pointer: Pos reports how many bits have been consumed.
type Reader struct {
	s   *BitString
	pos int
}

// NewReader returns a reader positioned at bit 0 of s.
func NewReader(s *BitString) *Reader { return &Reader{s: s} }

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() bool {
	b := r.s.Bit(r.pos)
	r.pos++
	return b
}

// ReadUint consumes width bits and decodes them as AppendUint encoded them.
func (r *Reader) ReadUint(width int) uint64 {
	v := r.s.Uint(r.pos, width)
	r.pos += width
	return v
}

// WidthFor returns the minimum number of bits needed to represent every
// value in [0, v], i.e. ⌈log2(v+1)⌉ with WidthFor(0) = 0... corrected to 1
// so that a value always occupies at least one bit when encoded.
func WidthFor(v uint64) int {
	w := 1
	for v >= 1<<uint(w) && w < 64 {
		w++
	}
	return w
}

// Chunks encodes a sequence of non-empty chunks into the self-delimiting
// bitmap format of the Theorem 2 scheme: the result is bitmap‖payload where
// the payload is the concatenation of the chunks and bitmap bit k is 1 iff
// payload bit k is the last bit of a chunk. The encoding is exactly twice
// the payload size, matching the paper's "this doubles the size of the
// advices". Decoding splits the string in half (payload length = total/2).
func Chunks(chunks []*BitString) *BitString {
	var payload, bitmap BitString
	for _, c := range chunks {
		if c.Len() == 0 {
			panic("bitstring: empty chunk")
		}
		for i := 0; i < c.Len(); i++ {
			payload.AppendBit(c.Bit(i))
			bitmap.AppendBit(i == c.Len()-1)
		}
	}
	out := New(2 * payload.Len())
	out.Append(&bitmap)
	out.Append(&payload)
	return out
}

// SplitChunks decodes a string produced by Chunks.
func SplitChunks(s *BitString) ([]*BitString, error) {
	if s.Len()%2 != 0 {
		return nil, fmt.Errorf("bitstring: chunked string has odd length %d", s.Len())
	}
	half := s.Len() / 2
	bitmap, payload := s.Slice(0, half), s.Slice(half, s.Len())
	var chunks []*BitString
	start := 0
	for i := 0; i < half; i++ {
		if bitmap.Bit(i) {
			chunks = append(chunks, payload.Slice(start, i+1))
			start = i + 1
		}
	}
	if start != half {
		return nil, fmt.Errorf("bitstring: trailing unterminated chunk of %d bits", half-start)
	}
	return chunks, nil
}
