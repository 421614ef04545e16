package par

import "slices"

// SortU64 sorts keys ascending with a parallel least-significant-digit
// radix sort (8-bit digits, up to 8 passes). Each pass counts digit
// occurrences per worker range, builds per-(worker, digit) write offsets
// from one serial 256×workers prefix scan, then scatters — every element
// lands at a position fully determined by the input, so the writes are
// disjoint and the output is byte-identical for any worker count (the
// sorted order of uint64 keys is unique, so stability is vacuous here;
// callers that need a tiebreak pack it into the low bits of the key).
// Passes whose digit is constant across the input are skipped, which
// collapses the common packed-key layouts (few live bytes) to 2–4 passes.
//
// The seeded parallel generators use it for edge dedup and port
// assignment, and graph validation for its duplicate-ID check.
func SortU64(workers int, keys []uint64) {
	n := len(keys)
	workers = WorkersFor(workers, n)
	if workers <= 1 || n < 2*grain {
		slices.Sort(keys)
		return
	}
	src, dst := keys, make([]uint64, n)
	counts := make([][]int, workers)
	for w := range counts {
		counts[w] = make([]int, 256)
	}
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		for w := range counts {
			clear(counts[w])
		}
		Ranges(workers, n, func(w, lo, hi int) {
			c := counts[w]
			for _, v := range src[lo:hi] {
				c[(v>>shift)&0xff]++
			}
		})
		nonzero := 0
		for b := 0; b < 256; b++ {
			for w := 0; w < workers; w++ {
				if counts[w][b] != 0 {
					nonzero++
					break
				}
			}
		}
		if nonzero <= 1 {
			continue // constant digit: the pass would be the identity
		}
		pos := 0
		for b := 0; b < 256; b++ {
			for w := 0; w < workers; w++ {
				c := counts[w][b]
				counts[w][b] = pos
				pos += c
			}
		}
		Ranges(workers, n, func(w, lo, hi int) {
			off := counts[w]
			for _, v := range src[lo:hi] {
				b := (v >> shift) & 0xff
				dst[off[b]] = v
				off[b]++
			}
		})
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &keys[0] {
		Ranges(workers, n, func(w, lo, hi int) {
			copy(keys[lo:hi], src[lo:hi])
		})
	}
}
