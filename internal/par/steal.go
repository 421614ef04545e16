package par

import (
	"sync"
	"sync/atomic"
)

// DefaultChunk is the work-stealing chunk granularity used by the oracle
// pipeline: small enough that the longest chunk cannot dominate a
// phase's critical path, large enough that the per-chunk claim (one CAS)
// is noise against the work inside it.
const DefaultChunk = 4096

// chunkQueue is one worker's deque of chunk indices. The queue owns the
// static range [base+next, base+limit) of the global chunk sequence;
// next and limit are packed into one atomic word (next in the high 32
// bits, limit in the low 32), so both the owner's pop-front and a
// thief's pop-back are single CAS transitions and can never hand out
// the same chunk twice. No chunk is ever pushed after construction, so
// an observed-empty queue stays empty — which is what makes the
// termination scan below correct.
type chunkQueue struct {
	nl   atomic.Uint64
	base int32
	_    [13]uint32 // pad to a cache line: queues are adjacent in a slice
}

func packNL(next, limit int32) uint64 { return uint64(uint32(next))<<32 | uint64(uint32(limit)) }

func unpackNL(v uint64) (next, limit int32) { return int32(v >> 32), int32(uint32(v)) }

// popFront claims the owner-side chunk (lowest index), preserving the
// owner's sequential locality over its preloaded range.
func (q *chunkQueue) popFront() (int, bool) {
	for {
		v := q.nl.Load()
		next, limit := unpackNL(v)
		if next >= limit {
			return 0, false
		}
		if q.nl.CompareAndSwap(v, packNL(next+1, limit)) {
			return int(q.base + next), true
		}
	}
}

// popBack claims the thief-side chunk (highest index), so steals take
// work furthest from the owner's cursor.
func (q *chunkQueue) popBack() (int, bool) {
	for {
		v := q.nl.Load()
		next, limit := unpackNL(v)
		if next >= limit {
			return 0, false
		}
		if q.nl.CompareAndSwap(v, packNL(next, limit-1)) {
			return int(q.base + limit - 1), true
		}
	}
}

// Steal runs fn over [0, n) split into fixed-size chunks scheduled by
// work stealing: the chunk sequence is preloaded round-robin-contiguously
// into per-worker deques, each worker drains its own deque from the
// front and, when empty, steals from the back of the others. fn receives
// the executing worker's index (for per-worker accumulators) and a
// half-open chunk range.
//
// Determinism contract: which worker executes which chunk depends on
// scheduling, so call sites must either write to disjoint locations
// determined by the range alone, or reduce into per-worker accumulators
// with an order-independent (commutative, associative) merge at the
// barrier — e.g. the phase kernel's per-fragment minimum under a strict
// total order. Under that discipline the result is byte-identical for
// any worker count and any steal schedule (property-tested in
// steal_test.go, including adversarial schedules).
//
// With one worker (or a single chunk) it runs inline on the caller's
// goroutine, so the sequential path pays no synchronization.
func Steal(workers, n, chunk int, fn func(w, lo, hi int)) {
	stealOrdered(workers, n, chunk, nil, fn)
}

// stealOrdered is Steal with an explicit victim-scan policy: when a
// worker's own deque is empty it probes victims[w][k] for k = 0, 1, ...
// (nil means the default round-robin scan starting at w+1). The policy
// exists so tests can drive adversarial steal schedules; every policy
// must yield the same result.
func stealOrdered(workers, n, chunk int, victims [][]int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = DefaultChunk
	}
	chunks := (n + chunk - 1) / chunk
	if victims == nil && workers > chunks {
		workers = chunks // surplus workers would idle; with a victim policy keep indices valid
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	queues := make([]chunkQueue, workers)
	per := chunks / workers
	extra := chunks % workers
	base := 0
	for w := 0; w < workers; w++ {
		take := per
		if w < extra {
			take++
		}
		queues[w].base = int32(base)
		queues[w].nl.Store(packNL(0, int32(take)))
		base += take
	}
	run := func(w int, c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(w, lo, hi)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if c, ok := queues[w].popFront(); ok {
					run(w, c)
					continue
				}
				// Own deque drained: steal. Queues only shrink, so one
				// full scan that finds every victim empty proves no work
				// remains anywhere (in-flight chunks are owned by the
				// workers executing them).
				stolen := false
				for k := 1; k < workers; k++ {
					v := (w + k) % workers
					if victims != nil {
						v = victims[w][k-1]
					}
					if c, ok := queues[v].popBack(); ok {
						run(w, c)
						stolen = true
						break
					}
				}
				if !stolen {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
