package service

import (
	"sync/atomic"
	"testing"
	"time"

	"mstadvice/internal/obs"
)

// TestReadPath pins the read path's contract (DESIGN.md §2.11):
// AdviceBits answers with the published advice and allocates nothing,
// service_queries_total moves by exactly the number of calls, and its
// one instrument — the counter add — costs less than 5% of a read more
// than the bare atomic add it stands in for.
func TestReadPath(t *testing.T) {
	const (
		n      = 10_000
		id     = "read"
		trials = 5       // interleaved; each wall is the best trial
		per    = 200_000 // operations per timed segment
	)
	snap := makeSnapshot(t, n, 3*n, 389)
	svc := New()
	if err := svc.Register(id, snap); err != nil {
		t.Fatal(err)
	}
	queries := func() uint64 {
		v, _ := svc.Metrics().CounterValue("service_queries_total")
		return v
	}
	q0 := queries()
	var calls uint64
	read := func(node int) {
		calls++
		bits, epoch, err := svc.AdviceBits(id, node)
		if err != nil || epoch != 0 || !bits.Equal(snap.Advice[node]) {
			t.Fatalf("node %d: epoch %d, err %v, or advice differs from the registered advice", node, epoch, err)
		}
	}

	for u := 0; u < n; u++ {
		read(u)
	}
	node := 0
	if allocs := testing.AllocsPerRun(10_000, func() {
		read(node)
		node = (node + 7919) % n
	}); allocs != 0 {
		t.Errorf("AdviceBits allocates %g objects per call, want 0", allocs)
	}

	// Unregistered zero-value instruments time the primitives alone:
	// every serving series is registered once, at construction.
	var counter obs.Counter
	var raw atomic.Uint64
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	atomicSeg := func() {
		for i := 0; i < per; i++ {
			raw.Add(1)
		}
	}
	counterSeg := func() {
		for i := 0; i < per; i++ {
			counter.Inc()
		}
	}
	failed := 0
	readSeg := func() {
		for i := 0; i < per; i++ {
			if bits, _, err := svc.AdviceBits(id, (i*7919)%n); err != nil || bits == nil {
				failed++
			}
		}
		calls += per
	}
	const worst = time.Duration(1<<63 - 1)
	atomicBest, counterBest, readBest := worst, worst, worst
	for trial := 0; trial < trials; trial++ {
		// Alternate the order of the atomic and counter segments, so
		// that a bias towards whichever runs second cancels in the
		// minima.
		var a, c time.Duration
		if trial%2 == 0 {
			a, c = timed(atomicSeg), timed(counterSeg)
		} else {
			c, a = timed(counterSeg), timed(atomicSeg)
		}
		atomicBest, counterBest = min(atomicBest, a), min(counterBest, c)
		readBest = min(readBest, timed(readSeg))
	}
	marginal := max(counterBest-atomicBest, 0)
	t.Logf("per op: atomic %.2f ns, counter %.2f ns, read %.2f ns",
		float64(atomicBest)/per, float64(counterBest)/per, float64(readBest)/per)
	if 20*marginal > readBest {
		t.Errorf("counter costs %.2f ns per op over a bare atomic add, at least 5%% of a %.2f ns read",
			float64(marginal)/per, float64(readBest)/per)
	}

	if failed > 0 {
		t.Errorf("%d timed reads failed", failed)
	}
	if got := queries() - q0; got != calls {
		t.Errorf("service_queries_total moved by %d over %d calls", got, calls)
	}
}
