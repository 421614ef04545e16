package obs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// distributions are the shapes the quantile property test sweeps: the
// latency profiles the serving layers actually produce (tight uniform
// bodies, bimodal fast-path/slow-path splits, heavy Pareto-style
// tails).
var distributions = []struct {
	name string
	draw func(r *rand.Rand) int64
}{
	{"uniform", func(r *rand.Rand) int64 {
		return 100 + r.Int63n(10_000)
	}},
	{"bimodal", func(r *rand.Rand) int64 {
		if r.Intn(10) < 9 {
			return 200 + r.Int63n(400) // fast path
		}
		return 1_000_000 + r.Int63n(4_000_000) // slow path
	}},
	{"heavy-tail", func(r *rand.Rand) int64 {
		// Pareto-ish: x = scale / U^(1/alpha), alpha ≈ 1.2.
		u := r.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		v := 50 * math.Pow(1/u, 1/1.2)
		if v > 1e15 {
			v = 1e15
		}
		return int64(v)
	}},
	{"zero-heavy", func(r *rand.Rand) int64 {
		if r.Intn(4) == 0 {
			return 0
		}
		return r.Int63n(64)
	}},
}

// exactQuantile applies the histogram's rank rule (k = ⌈q·n⌉, 1-based)
// to the raw sorted samples.
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestQuantileVsExact is the property test of the quantile math: for
// every distribution and probe quantile, the histogram's interpolated
// estimate must land in the same log₂ bucket as the exact quantile of
// the sorted raw samples — the strongest guarantee exact bucket counts
// can give (estimates are within 2x, and the bucket identity is exact).
func TestQuantileVsExact(t *testing.T) {
	quantiles := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for _, dist := range distributions {
		for _, size := range []int{1, 10, 1_000, 50_000} {
			r := rand.New(rand.NewSource(int64(size) + 42))
			var h Histogram
			samples := make([]int64, size)
			for i := range samples {
				v := dist.draw(r)
				samples[i] = v
				h.Observe(v)
			}
			slices.Sort(samples)
			snap := h.Snapshot()
			if got, want := snap.Count(), uint64(size); got != want {
				t.Fatalf("%s n=%d: Count = %d, want %d", dist.name, size, got, want)
			}
			var wantSum int64
			for _, v := range samples {
				wantSum += v
			}
			if snap.Sum != wantSum {
				t.Fatalf("%s n=%d: Sum = %d, want %d", dist.name, size, snap.Sum, wantSum)
			}
			for _, q := range quantiles {
				est := snap.Quantile(q)
				exact := exactQuantile(samples, q)
				if got, want := bucketOf(int64(est)), bucketOf(exact); got != want {
					// The estimate interpolates inside the half-open bucket
					// [lo, hi); hitting exactly hi via frac == 1 is the one
					// legal boundary case (est = hi is still "within" the
					// bucket in the closed sense the docs promise).
					lo, hi := bucketBounds(want)
					if est < lo || est > hi {
						t.Errorf("%s n=%d q=%g: estimate %g (bucket %d) vs exact %d (bucket %d, [%g,%g))",
							dist.name, size, q, est, got, exact, want, lo, hi)
					}
				}
			}
		}
	}
}

// TestQuantileEmpty pins the empty-histogram contract.
func TestQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	if v := s.Quantile(0.5); !math.IsNaN(v) {
		t.Errorf("empty Quantile = %g, want NaN", v)
	}
	if s.Count() != 0 {
		t.Errorf("empty Count = %d", s.Count())
	}
}

// TestObserveNegativeClamps: a backwards clock step lands in bucket 0
// and contributes nothing to the sum.
func TestObserveNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Sum != 0 {
		t.Errorf("negative observe: buckets[0]=%d sum=%d, want 1, 0", s.Buckets[0], s.Sum)
	}
}

// TestObserveAllocs pins the hot-path contract: Observe (and
// Counter.Add) allocate nothing.
func TestObserveAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %g/op", n)
	}
}
