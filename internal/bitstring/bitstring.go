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
// A BitString is 16 bytes, in one of two representations. A string of
// at most 64 bits keeps them in one inline word, and its length is a
// pointer into a shared, read-only table of the 65 lengths 0..64, so
// advice of a few bits costs its 16 bytes and nothing more. A string
// that outgrows 64 bits, or was made with room for more, points instead
// to a tail of its own, which holds its length and all its words. The
// table is never written, and no two strings share a tail, so strings
// never share mutable state: appending to one never changes another,
// and Clone is the way to copy one.
//
// See DESIGN.md §2.5 for the arena-backed encoding discipline the
// oracle pipeline builds on top of this package.
package bitstring

import (
	"fmt"
	"iter"
	"slices"
	"strings"
)

// BitString is a growable sequence of bits. The zero value is an empty
// string ready for use. Bits are indexed from 0 in append order.
type BitString struct {
	w [1]uint64 // an inline string's bits; zero for a string with a tail
	t *tail     // nil (empty), an entry of lengths, or an owned tail
}

// tail is a string's length and, for a string that owns it, its
// ⌈n/64⌉ words, bits at positions >= n zero. An owned tail's words are
// never nil; a shared length entry has none.
type tail struct {
	n     int
	words []uint64
}

// lengths[k] is the read-only length of every inline string of k bits.
var lengths = func() (t [65]tail) {
	for k := range t {
		t[k].n = k
	}
	return t
}()

// New returns an empty BitString with capacity for at least n bits.
func New(n int) *BitString {
	if n <= 64 {
		return new(BitString)
	}
	return &BitString{t: &tail{words: make([]uint64, 0, (n+63)/64)}}
}

// owned returns s's tail if s has one of its own, or nil if s is inline.
func (s *BitString) owned() *tail {
	if s.t == nil || s.t.words == nil {
		return nil
	}
	return s.t
}

// store returns the words s's bits live in.
func (s *BitString) store() []uint64 {
	if t := s.owned(); t != nil {
		return t.words
	}
	return s.w[:]
}

// extend grows s to m >= Len() bits, the new ones zero. An inline
// string that needs more than 64 bits moves its word into a tail of its
// own.
func (s *BitString) extend(m int) {
	t := s.owned()
	if t == nil {
		if m <= 64 {
			s.t = &lengths[m]
			return
		}
		t = &tail{words: make([]uint64, 1, (m+63)/64)}
		t.words[0], s.w[0] = s.w[0], 0
		s.t = t
	}
	for len(t.words) < (m+63)/64 {
		t.words = append(t.words, 0)
	}
	t.n = m
}

// Len returns the number of bits in s.
func (s *BitString) Len() int {
	if s == nil || s.t == nil {
		return 0
	}
	return s.t.n
}

// Bit returns the i-th bit. It panics if i is out of range.
func (s *BitString) Bit(i int) bool {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, s.Len()))
	}
	return s.store()[i/64]>>(uint(i)%64)&1 == 1
}

// SetBit sets bit i to b. It panics if i is out of range. Call it only
// on a string not yet handed out (see the package doc).
func (s *BitString) SetBit(i int, b bool) {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, s.Len()))
	}
	if b {
		s.store()[i/64] |= 1 << (uint(i) % 64)
	} else {
		s.store()[i/64] &^= 1 << (uint(i) % 64)
	}
}

// AppendBit appends a single bit.
func (s *BitString) AppendBit(b bool) {
	n := s.Len()
	s.extend(n + 1)
	if b {
		s.store()[n/64] |= 1 << (uint(n) % 64)
	}
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
	n := s.Len()
	s.extend(n + width)
	if v == 0 {
		return
	}
	w, off := s.store(), uint(n)%64
	w[n/64] |= v << off
	if off+uint(width) > 64 {
		w[n/64+1] |= v >> (64 - off)
	}
}

// Append appends all bits of t to s.
func (s *BitString) Append(t *BitString) {
	s.AppendRange(t, 0, t.Len())
}

// AppendRange appends bits [from, to) of t to s, up to a word at a
// time, without allocating any intermediate string (the in-place
// replacement for Append(t.Slice(...)) on the oracle's packing hot
// path). t may be s.
func (s *BitString) AppendRange(t *BitString, from, to int) {
	if from < 0 || to < from || to > t.Len() {
		panic(fmt.Sprintf("bitstring: bad range [%d,%d) of %d", from, to, t.Len()))
	}
	for from < to {
		k := min(64, to-from)
		s.AppendUint(t.Uint(from, k), k)
		from += k
	}
}

// Words returns the underlying 64-bit words of s, least significant bit
// first within each word: ⌈Len()/64⌉ of them, and bits at positions >=
// Len() in the last word are zero. The returned slice aliases s and
// must not be modified. It is the word-at-a-time read path of the
// binary codec (internal/store), which would otherwise pay a per-bit
// call on every advice string.
func (s *BitString) Words() []uint64 {
	if s == nil {
		return nil
	}
	if t := s.owned(); t != nil {
		return t.words
	}
	return s.w[:(s.Len()+63)/64]
}

// LoadWords replaces the contents of s with the first nbits bits of the
// given words (least significant bit first within each word). Storage is
// reused when it can hold them — an inline string stays inline for up to
// 64 bits, and a tail is kept when its capacity allows, so arena strings
// stay inside their slabs — and bits of the last word beyond nbits are
// masked off to preserve the invariant that bits above Len() are zero,
// so later appends stay correct. It is the word-at-a-time write path of
// the binary codec.
func (s *BitString) LoadWords(words []uint64, nbits int) {
	if nbits < 0 || nbits > 64*len(words) {
		panic(fmt.Sprintf("bitstring: LoadWords of %d bits from %d words", nbits, len(words)))
	}
	need := (nbits + 63) / 64
	switch t := s.owned(); {
	case t == nil && nbits <= 64:
		s.t = &lengths[nbits]
	case t != nil && cap(t.words) >= need:
		t.words, t.n = t.words[:need], nbits
	default:
		s.w[0], s.t = 0, &tail{n: nbits, words: make([]uint64, need)}
	}
	w := s.store()
	copy(w, words[:need])
	clear(w[need:])
	if last := uint(nbits) % 64; last != 0 {
		w[need-1] &= 1<<last - 1
	}
}

// Reset truncates s to the empty string, keeping a tail's capacity for
// reuse.
func (s *BitString) Reset() {
	if t := s.owned(); t != nil {
		t.words, t.n = t.words[:0], 0
		return
	}
	*s = BitString{}
}

// Slice returns a copy of bits [from, to).
func (s *BitString) Slice(from, to int) *BitString {
	if from < 0 || to < from || to > s.Len() {
		panic(fmt.Sprintf("bitstring: bad slice [%d,%d) of %d", from, to, s.Len()))
	}
	out := New(to - from)
	out.AppendRange(s, from, to)
	return out
}

// Clone returns a deep copy of s: it shares no tail with s, and a copy
// of at most 64 bits is inline.
func (s *BitString) Clone() *BitString {
	out := New(s.Len())
	out.LoadWords(s.Words(), s.Len())
	return out
}

// Uint decodes the width bits starting at offset as an unsigned integer
// (least significant bit first, matching AppendUint).
func (s *BitString) Uint(offset, width int) uint64 {
	if width < 0 || width > 64 || offset < 0 || offset+width > s.Len() {
		panic(fmt.Sprintf("bitstring: bad field (off=%d,w=%d) of %d", offset, width, s.Len()))
	}
	if width == 0 {
		return 0
	}
	w, off := s.store(), uint(offset)%64
	v := w[offset/64] >> off
	if off+uint(width) > 64 {
		v |= w[offset/64+1] << (64 - off)
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

// Equal reports whether s and t hold identical bit sequences.
func (s *BitString) Equal(t *BitString) bool {
	return s.Len() == t.Len() && slices.Equal(s.Words(), t.Words())
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

// Arena is a slab allocator for a fixed population of BitStrings, used
// by the oracle pipeline to hand out n per-node advice strings from one
// 16-byte-per-string slab instead of n allocations. Strings of at most
// 64 bits need nothing more; a string with room for more gets a tail
// carved from a second slab, and its words from a third. Appending
// within a string's capacity never allocates (a string that outgrows it
// falls back to an ordinary heap tail and stays correct).
type Arena struct {
	strings []BitString
}

// NewRaggedArena returns an arena of one empty string per length bits
// yields, where string i has capacity for the i-th length's bits. It is
// the exact-size counterpart of NewArena for populations with known,
// non-uniform lengths (the store codec, which yields them from the
// encoded lengths instead of keeping a copy): the slabs hold 16 bytes
// per string and, for each string over 64 bits, a tail and ⌈bits/64⌉
// words, so a hostile length table can never make the arena allocate
// more than a constant factor of the input that declared it. bits is
// ranged twice, to size the slabs and to carve them, and must yield the
// same lengths both times.
func NewRaggedArena(bits iter.Seq[int]) *Arena {
	count, long, total := 0, 0, 0
	for b := range bits {
		count++
		if b > 64 {
			long++
			total += (b + 63) / 64
		}
	}
	a := &Arena{strings: make([]BitString, count)}
	if long == 0 {
		return a
	}
	tails, words := make([]tail, long), make([]uint64, total)
	i := 0
	for b := range bits {
		if b > 64 {
			w := (b + 63) / 64
			tails[0].words = words[:0:w]
			a.strings[i].t = &tails[0]
			tails, words = tails[1:], words[w:]
		}
		i++
	}
	return a
}

// NewArena returns an arena of count empty strings, each with capacity
// for bitsPer bits.
func NewArena(count, bitsPer int) *Arena {
	a := &Arena{strings: make([]BitString, max(count, 0))}
	if bitsPer > 64 {
		wpc := (bitsPer + 63) / 64
		tails, words := make([]tail, len(a.strings)), make([]uint64, len(a.strings)*wpc)
		for i := range a.strings {
			tails[i].words = words[i*wpc : i*wpc : (i+1)*wpc]
			a.strings[i].t = &tails[i]
		}
	}
	return a
}

// At returns the i-th string. Distinct indices own distinct storage, so
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
