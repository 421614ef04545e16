// Package par is the tiny deterministic fork-join helper shared by the
// oracle-side pipeline (graph finalize, the Borůvka phase kernel, advice
// encoding) and both simulation engines of internal/sim. There is one
// schedule: static contiguous index ranges, one per worker, sized by
// WorkersFor. Every call site keeps its writes disjoint per range (or
// merges per-worker accumulators at the barrier with an
// order-independent merge), so results are byte-identical for any
// worker count.
//
// See DESIGN.md §2.5 and §2.12 for the oracle pipeline's parallel
// sections and their byte-identical-for-any-worker-count contract.
package par

import (
	"runtime"
	"sync"
)

// grain is the number of items that earns a loop one more worker:
// small enough that a 10⁶-edge pass splits across every core, large
// enough that fork-join overhead and per-worker buffer resets never
// dominate a small one.
const grain = 4096

// Workers resolves a requested worker count: 0 (or negative) means
// GOMAXPROCS, anything else is returned as is (a count above GOMAXPROCS
// is legal — the goroutines just share cores).
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// WorkersFor sizes one loop over items: Workers(requested), capped at
// one worker per grain items, so the thousands of small graphs the
// sweeps build never pay fork-join overhead. An explicit request above
// GOMAXPROCS is honoured, which lets tests drive the parallel paths on
// 1–2-core hosts.
func WorkersFor(requested, items int) int {
	return min(Workers(requested), 1+items/grain)
}

// Ranges runs fn over [0, n) split into at most `workers` contiguous
// chunks and waits for all of them. fn receives the worker index (for
// per-worker accumulators) and its half-open range. With one worker (or a
// tiny n) it runs inline on the caller's goroutine, so the sequential
// path pays no synchronization.
func Ranges(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n < 2 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// FirstFailure is Ranges for loops that can fail: fn processes one
// contiguous range and returns the index of its first failure together
// with the error (a negative index means the range succeeded). After
// the barrier the failure with the lowest index wins, so the reported
// error is the one a sequential scan would have surfaced — regardless
// of worker count or scheduling.
func FirstFailure(workers, n int, fn func(w, lo, hi int) (int, error)) error {
	if workers < 1 {
		workers = 1
	}
	idx := make([]int, workers)
	errs := make([]error, workers)
	for w := range idx {
		idx[w] = -1
	}
	Ranges(workers, n, func(w, lo, hi int) {
		idx[w], errs[w] = fn(w, lo, hi)
	})
	best := -1
	var firstErr error
	for w := range idx {
		if idx[w] >= 0 && errs[w] != nil && (best == -1 || idx[w] < best) {
			best, firstErr = idx[w], errs[w]
		}
	}
	return firstErr
}
