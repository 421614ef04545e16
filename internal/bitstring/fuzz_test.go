package bitstring

import (
	"fmt"
	"slices"
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

// FuzzBitOps runs a byte-coded sequence of operations on four strings
// and, after every step, checks each against a []bool model with
// checkBits. Strings 0 and 1 are neighbours in one ragged arena whose
// two capacities are the first two bytes; string 2 starts as New of the
// third byte and string 3 as the zero value, and New, Clone and Slice
// replace 2 or 3. Each model changes only with its own string, so a
// clone, or an arena neighbour, that changes when another string is
// mutated fails the check. Each operation is an opcode byte, op | i<<4
// | j<<6 (op mod 10; string i is the target, j the source), then its
// arguments; lengths past 1024 bits are skipped to keep a run short.
// Seeds under testdata/fuzz/FuzzBitOps cross 63/64/65 and 128/129 bits.
func FuzzBitOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &bitOps{data: data}
		a := NewRaggedArena(slices.Values([]int{o.byte(), o.byte()}))
		o.s = [4]*BitString{a.At(0), a.At(1), New(o.byte()), new(BitString)}
		for step := 0; len(o.data) > 0; step++ {
			o.step()
			for k, s := range o.s {
				checkBits(t, fmt.Sprintf("step %d: string %d", step, k), s, o.model[k])
			}
		}
	})
}

// maxOpBits bounds the strings FuzzBitOps builds.
const maxOpBits = 1024

// bitOps is FuzzBitOps' interpreter: the strings, their models and the
// bytes left.
type bitOps struct {
	data  []byte
	s     [4]*BitString
	model [4][]bool
}

// byte consumes one byte; an exhausted input reads zeros.
func (o *bitOps) byte() int {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return int(b)
}

// num consumes two bytes as a number below n > 0.
func (o *bitOps) num(n int) int { return (o.byte() | o.byte()<<8) % n }

// span consumes a range [from, to) within n bits.
func (o *bitOps) span(n int) (from, to int) {
	from = o.num(n + 1)
	return from, from + o.num(n-from+1)
}

// word consumes eight bytes, least significant first.
func (o *bitOps) word() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(o.byte()) << (8 * k)
	}
	return v
}

// step decodes and runs one operation.
func (o *bitOps) step() {
	c := o.byte()
	op, i, j := c&15%10, c>>4&3, c>>6
	fresh := 2 + i%2 // the target of an operation that makes a new string
	switch op {
	case 0:
		o.s[fresh], o.model[fresh] = New(o.byte()), nil
	case 1:
		b := o.byte()&1 == 1
		if len(o.model[i]) < maxOpBits {
			o.s[i].AppendBit(b)
			o.model[i] = append(o.model[i], b)
		}
	case 2:
		width, v := o.byte()%65, o.word()
		if width < 64 {
			v &= 1<<uint(width) - 1
		}
		if len(o.model[i])+width <= maxOpBits {
			o.s[i].AppendUint(v, width)
			o.model[i] = append(o.model[i], wordBits(v, width)...)
		}
	case 3:
		from, to := o.span(len(o.model[j]))
		if len(o.model[i])+to-from <= maxOpBits {
			o.s[i].AppendRange(o.s[j], from, to)
			o.model[i] = append(o.model[i], o.model[j][from:to]...)
		}
	case 4:
		k, b := o.byte()|o.byte()<<8, o.byte()&1 == 1
		if n := len(o.model[i]); n > 0 {
			o.s[i].SetBit(k%n, b)
			o.model[i][k%n] = b
		}
	case 5:
		// LoadWords from up to three fresh words, or, with the count
		// byte's top bit set, from string j's own words, which may be
		// string i's.
		nw := o.byte()
		var words []uint64
		var src []bool
		if nw&0x80 != 0 {
			words, src = o.s[j].Words(), o.model[j]
		} else {
			for range nw % 4 {
				w := o.word()
				words = append(words, w)
				src = append(src, wordBits(w, 64)...)
			}
		}
		nbits := min(o.num(64*len(words)+1), len(src))
		o.s[i].LoadWords(words, nbits)
		o.model[i] = slices.Clone(src[:nbits])
	case 6:
		o.s[fresh], o.model[fresh] = o.s[j].Clone(), slices.Clone(o.model[j])
	case 7:
		o.s[i].Reset()
		o.model[i] = nil
	case 8:
		from, to := o.span(len(o.model[j]))
		o.s[fresh], o.model[fresh] = o.s[j].Slice(from, to), slices.Clone(o.model[j][from:to])
	case 9:
		if len(o.model[i])+len(o.model[j]) <= maxOpBits {
			o.s[i].Append(o.s[j])
			o.model[i] = append(o.model[i], o.model[j]...)
		}
	}
}

// wordBits returns the width low bits of v, least significant first.
func wordBits(v uint64, width int) []bool {
	bits := make([]bool, width)
	for k := range bits {
		bits[k] = v>>uint(k)&1 == 1
	}
	return bits
}
