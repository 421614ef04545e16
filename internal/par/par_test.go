package par

import (
	"runtime"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

// TestWorkersFor pins the one loop-sizing rule: Workers(requested)
// capped at one worker per grain items.
func TestWorkersFor(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name             string
		requested, items int
		want             int
	}{
		{"0 resolves to GOMAXPROCS", 0, procs * grain, procs},
		{"explicit request above GOMAXPROCS is honoured", procs + 3, (procs + 3) * grain, procs + 3},
		{"floor of one worker per grain items", 64, 3*grain - 1, 3},
	} {
		if got := WorkersFor(tc.requested, tc.items); got != tc.want {
			t.Errorf("%s: WorkersFor(%d, %d) = %d, want %d", tc.name, tc.requested, tc.items, got, tc.want)
		}
	}
}

// TestRangesCoverage checks that every index is visited exactly once for
// a spread of worker counts and sizes, including workers > n.
func TestRangesCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 1000} {
			visits := make([]int32, n)
			Ranges(workers, n, func(w, lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad range [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					visits[i]++ // ranges are disjoint, so no race
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestRangesWorkerIndexBounds checks worker indices stay within the
// requested pool (per-worker accumulator arrays rely on it).
func TestRangesWorkerIndexBounds(t *testing.T) {
	const workers = 5
	seen := make([]bool, workers)
	Ranges(workers, 100, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of [0,%d)", w, workers)
			return
		}
		seen[w] = true
	})
	for w, s := range seen {
		if !s {
			t.Errorf("worker %d never ran (n=100 should use all %d workers)", w, workers)
		}
	}
}
