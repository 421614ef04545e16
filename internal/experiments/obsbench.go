package experiments

import (
	"runtime"
	"sync/atomic"
	"time"

	"mstadvice/internal/core"
	"mstadvice/internal/obs"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// obsBenchQueries is the default per-measurement op count.
const obsBenchQueries = 1_000_000

// obsBenchTrials interleaves the measurements: each trial times the
// counter, the histogram and the read path back to back, and every
// reported wall is the best trial — so a frequency ramp or a GC that
// lands mid-run cannot skew one instrument against the other.
const obsBenchTrials = 5

// ObsBench gates the observability core's cost on the serving hot path
// (BENCH_obs.json, DESIGN.md §2.11). The service read path carries
// exactly one instrument — the service_queries_total counter add — and
// the uninstrumented baseline it is compared against is the seed path,
// which paid one plain sync/atomic add for its Stats counter in the
// same position. The <5% contract is therefore measured marginally:
// obs.Counter.Inc must cost no more than the raw atomic it replaced,
// with the difference under 5% of the per-query read wall. Rows (kind
// "obs"):
//
//	atomic-baseline     per-op wall of a bare sync/atomic add — the
//	                    uninstrumented baseline's counter cost; Verified
//	                    = zero allocations
//	counter-inc         per-op wall of obs.Counter.Inc, the only hot-path
//	                    instrument; Verified = zero allocations
//	histogram-observe   per-op wall of obs.Histogram.Observe (slow paths
//	                    only: publish, update, decode); Verified = zero
//	                    allocations
//	read-path           closed loop of service.AdviceBits on a registered
//	                    instance; Verified = 0 allocs/query, the server's
//	                    query counter exactly matching the issued count,
//	                    and max(0, counter−atomic) per-op under 5% of the
//	                    per-query wall (Speedup records the headroom:
//	                    read wall per counter add, for the trajectory)
//
// The <5% bound is the CI contract: a change that makes obs.Counter.Inc
// heavier than one atomic add (a lock, a map lookup, an allocation)
// flips Verified, and a Verified loss always fails CompareBaseline
// regardless of timing noise.
func ObsBench(c Config) []BenchResult {
	n := 10_000
	if len(c.Sizes) > 0 {
		n = c.Sizes[0]
	}
	queries := c.Queries
	if queries <= 0 {
		queries = obsBenchQueries
	}
	per := queries / obsBenchTrials
	if per < 1 {
		per = 1
	}

	g := c.graph("random", n, int64(n)+389)
	adviceBits, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		panic(err)
	}
	svc := service.New()
	const graphID = "obs"
	if err := svc.Register(graphID, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adviceBits}); err != nil {
		panic(err)
	}

	// Unregistered zero-value instruments time the primitives themselves,
	// not the registry lookup (which no serving path pays either — every
	// series is pre-registered at construction).
	var counter obs.Counter
	var hist obs.Histogram
	var raw atomic.Uint64 // the seed's uninstrumented-baseline counter

	const worst = int64(1) << 62
	atomicBest, counterBest, histBest, readBest := worst, worst, worst, worst
	var atomicAllocs, counterAllocs, histAllocs, readAllocs uint64
	var readBytes uint64
	bad := 0
	queriesBefore, _ := svc.Metrics().CounterValue("service_queries_total")
	var before, after runtime.MemStats
	runtime.GC() // settle the construction garbage before the timed trials

	// measure times one segment: wall ns plus the process-global Mallocs
	// and TotalAlloc deltas around it.
	measure := func(f func()) (int64, uint64, uint64) {
		runtime.ReadMemStats(&before)
		start := time.Now()
		f()
		wall := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
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

	for t := 0; t < obsBenchTrials; t++ {
		// The atomic and counter segments feed a differential gate at
		// sub-ns-per-op resolution, so alternate their order each trial:
		// any positional bias (a frequency ramp, a background burst that
		// always lands on the second segment) then cancels in the minima.
		first, second := atomicSeg, counterSeg
		if t%2 == 1 {
			first, second = counterSeg, atomicSeg
		}
		w1, a1, _ := measure(first)
		w2, a2, _ := measure(second)
		if t%2 == 1 {
			w1, w2 = w2, w1
			a1, a2 = a2, a1
		}
		atomicAllocs += a1
		counterAllocs += a2
		if w1 < atomicBest {
			atomicBest = w1
		}
		if w2 < counterBest {
			counterBest = w2
		}

		wall, allocs, _ := measure(func() {
			for i := 0; i < per; i++ {
				hist.Observe(int64(i))
			}
		})
		histAllocs += allocs
		if wall < histBest {
			histBest = wall
		}

		wall, allocs, bytes := measure(func() {
			for i := 0; i < per; i++ {
				bits, _, err := svc.AdviceBits(graphID, (i*7919)%n)
				if err != nil || bits == nil {
					bad++
				}
			}
		})
		readAllocs += allocs
		readBytes += bytes
		if wall < readBest {
			readBest = wall
		}
	}

	queriesAfter, _ := svc.Metrics().CounterValue("service_queries_total")
	issued := int64(obsBenchTrials * per)
	counterMatches := queriesAfter-queriesBefore == uint64(issued)

	base := BenchResult{Kind: "obs", Family: "random", N: g.N(), M: g.M(), Workers: 1, Queries: int64(per)}

	atomicRow := base
	atomicRow.Scheme = "atomic-baseline"
	atomicRow.WallNS = atomicBest
	atomicRow.QPS = float64(per) / (float64(atomicBest) / 1e9)
	atomicRow.Allocs = atomicAllocs
	atomicRow.Verified = float64(atomicAllocs)/float64(issued) < 0.001

	counterRow := base
	counterRow.Scheme = "counter-inc"
	counterRow.WallNS = counterBest
	counterRow.QPS = float64(per) / (float64(counterBest) / 1e9)
	counterRow.Allocs = counterAllocs
	counterRow.Verified = float64(counterAllocs)/float64(issued) < 0.001

	histRow := base
	histRow.Scheme = "histogram-observe"
	histRow.WallNS = histBest
	histRow.QPS = float64(per) / (float64(histBest) / 1e9)
	histRow.Allocs = histAllocs
	histRow.Verified = float64(histAllocs)/float64(issued) < 0.001

	readRow := base
	readRow.Scheme = "read-path"
	readRow.WallNS = readBest
	readRow.QPS = float64(per) / (float64(readBest) / 1e9)
	readRow.Allocs = readAllocs
	readRow.AllocBytes = readBytes
	readRow.AllocsPerQuery = float64(readAllocs) / float64(issued)
	if counterBest > 0 {
		readRow.Speedup = float64(readBest) / float64(counterBest)
	}
	// "Zero allocs per query" tolerates a stray runtime-internal
	// allocation (the Mallocs counter is process-global): anything the
	// read path itself allocated would show up once per query, orders of
	// magnitude above the slop. The <5% clause compares the instrument
	// against the plain atomic the seed paid in the same spot: the
	// marginal cost (clamped at 0 — timing noise can make the obs counter
	// measure faster) must stay under 5% of the per-query read wall.
	marginal := counterBest - atomicBest
	if marginal < 0 {
		marginal = 0
	}
	readRow.Verified = bad == 0 && readRow.AllocsPerQuery < 0.001 && counterMatches &&
		20*marginal <= readBest
	return []BenchResult{atomicRow, counterRow, histRow, readRow}
}
