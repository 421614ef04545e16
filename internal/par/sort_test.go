package par

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortU64 checks SortU64 against the standard sort across sizes
// (including the small-input fallback boundary), worker counts, and key
// shapes (uniform 64-bit, few live bytes, heavy duplicates, pre-sorted,
// reversed, constant).
func TestSortU64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := map[string]func(n int) []uint64{
		"uniform64": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64()
			}
			return a
		},
		"lowbytes": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(rng.Intn(1 << 16))
			}
			return a
		},
		"dups": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(rng.Intn(7))
			}
			return a
		},
		"sorted": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(i) << 20
			}
			return a
		},
		"reversed": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(n-i) << 40
			}
			return a
		},
		"constant": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = 0xdeadbeef
			}
			return a
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{0, 1, 2, 100, 2*grain - 1, 2 * grain, 3*grain + 17} {
			base := gen(n)
			want := slices.Clone(base)
			slices.Sort(want)
			for _, workers := range []int{1, 2, 3, 8} {
				got := slices.Clone(base)
				SortU64(workers, got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d workers=%d: sorted output differs", name, n, workers)
				}
			}
		}
	}
}

// TestSortU64WorkerIndependence is the determinism check in its direct
// form: the sorted output of identical input must be byte-identical for
// every worker count (trivially true of a correct sort — this guards a
// buggy scatter that drops or duplicates elements under some splits).
func TestSortU64WorkerIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := make([]uint64, 5*grain+13)
	for i := range base {
		base[i] = rng.Uint64() & 0xffff_ffff_ff00 // live middle bytes → passes skipped both ends
	}
	ref := slices.Clone(base)
	SortU64(1, ref)
	for _, workers := range []int{2, 3, 4, 8, 16} {
		got := slices.Clone(base)
		SortU64(workers, got)
		if !slices.Equal(got, ref) {
			t.Fatalf("workers=%d: output differs from 1-worker sort", workers)
		}
	}
}
