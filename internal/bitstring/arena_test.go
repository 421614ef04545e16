package bitstring

import (
	"fmt"
	"sync"
	"testing"
)

// TestArenaBasics checks that arena strings behave like independent
// BitStrings.
func TestArenaBasics(t *testing.T) {
	a := NewArena(3, 12)
	if len(a.strings) != 3 {
		t.Fatalf("arena length %d, want 3", len(a.strings))
	}
	a.At(0).AppendUint(0b1011, 4)
	a.At(1).AppendBit(true)
	a.At(2).AppendUint(0xfff, 12)
	if got := a.At(0).String(); got != "1101" {
		t.Errorf("string 0 = %q", got)
	}
	if got := a.At(1).String(); got != "1" {
		t.Errorf("string 1 = %q", got)
	}
	if got := a.At(2).String(); got != "111111111111" {
		t.Errorf("string 2 = %q", got)
	}
	// Growing past the arena capacity must stay correct (falls back to
	// heap growth for that string only).
	for i := 0; i < 100; i++ {
		a.At(1).AppendBit(i%2 == 0)
	}
	if a.At(1).Len() != 101 {
		t.Errorf("overgrown string length %d, want 101", a.At(1).Len())
	}
	if got := a.At(0).String(); got != "1101" {
		t.Errorf("neighbour corrupted by overgrowth: %q", got)
	}
}

// TestArenaZeroAllocAppends pins the arena's purpose: appends within the
// per-string capacity do not allocate.
func TestArenaZeroAllocAppends(t *testing.T) {
	a := NewArena(64, 12)
	i := 0
	allocs := testing.AllocsPerRun(32, func() {
		s := a.At(i)
		i++
		for b := 0; b < 12; b++ {
			s.AppendBit(b%2 == 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("in-capacity appends allocate %.1f objects per run, want 0", allocs)
	}
}

// TestResetReuse checks Reset clears content but keeps capacity usable.
func TestResetReuse(t *testing.T) {
	s := New(8)
	s.AppendUint(0xff, 8)
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("length after Reset = %d", s.Len())
	}
	s.AppendUint(0b0101, 4)
	if got := s.String(); got != "1010" {
		t.Fatalf("post-reset content %q, want %q", got, "1010")
	}
}

// TestAppendRange cross-checks AppendRange against Append(Slice(...)).
func TestAppendRange(t *testing.T) {
	src := New(20)
	src.AppendUint(0b10110011010, 11)
	for from := 0; from <= src.Len(); from++ {
		for to := from; to <= src.Len(); to++ {
			a, b := New(0), New(0)
			a.AppendRange(src, from, to)
			b.Append(src.Slice(from, to))
			if !a.Equal(b) {
				t.Fatalf("AppendRange(%d,%d) = %s, want %s", from, to, a, b)
			}
		}
	}
}

// TestArenaConcurrentAppends appends to distinct strings of one arena
// from several goroutines, neighbours on different goroutines, within
// the inline word, past it and past each string's capacity; the CI race
// step runs it. Distinct indices own distinct storage, so the detector
// finds nothing and every string reads back its own bits.
func TestArenaConcurrentAppends(t *testing.T) {
	const count, workers = 64, 4
	arenas := map[string]*Arena{
		"inline": NewArena(count, 12),
		"tails":  NewArena(count, 100),
		"ragged": NewRaggedArena(func(yield func(int) bool) {
			for i := range count {
				if !yield(i * 3) {
					return
				}
			}
		}),
	}
	for name, a := range arenas {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < count; i += workers {
					for b := 0; b < 2*i; b++ {
						a.At(i).AppendBit((b+i)%3 == 0)
					}
				}
			}()
		}
		wg.Wait()
		for i := range count {
			want := make([]bool, 2*i)
			for b := range want {
				want[b] = (b+i)%3 == 0
			}
			checkBits(t, fmt.Sprintf("%s arena string %d", name, i), a.At(i), want)
		}
	}
}
