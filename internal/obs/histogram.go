package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the fixed histogram width: bucket 0 holds exact zeros
// (and clamped negatives), bucket i ≥ 1 holds values v with
// bits.Len64(v) == i, i.e. v ∈ [2^(i-1), 2^i). 64 value buckets cover
// the whole int64 range, so Observe never branches on overflow.
const numBuckets = 65

// Histogram is a fixed-bucket log₂-scaled histogram (DESIGN.md §2.11).
// Observe is allocation-free and wait-free: one atomic add into the
// value's bucket and one into the running sum. Bucket counts are exact;
// quantiles are interpolated within the matched bucket, so an estimate
// is always inside the half-open power-of-two interval that contains
// the true sample quantile.
//
// The unit is whatever the caller observes — the serving layers record
// nanoseconds — and exposition publishes the bucket upper bounds as
// plain numbers in that unit.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. Negative values clamp into the zero
// bucket (a clock that stepped backwards must not corrupt the layout).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since t0 — the one-line
// latency idiom: defer-free, alloc-free.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Nanoseconds())
}

// Snapshot returns a point-in-time copy. Concurrent Observes may land
// between bucket reads; each bucket is individually exact and the
// snapshot is a consistent-enough view for exposition and merging
// (monotone per bucket, never torn within one).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a frozen histogram state: exact bucket counts and the
// value sum. Snapshots merge by bucket-wise addition, which is
// associative and commutative — shard- or replica-local histograms
// aggregate in any order to the same result.
type HistSnapshot struct {
	Buckets [numBuckets]uint64
	Sum     int64
}

// Count returns the total number of observations.
func (s *HistSnapshot) Count() uint64 {
	var n uint64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}

// bucketBounds returns the half-open value interval [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// Quantile returns the interpolated q-quantile (q ∈ [0, 1]) of the
// recorded distribution: the bucket holding the rank-⌈q·n⌉ observation
// is found by cumulative count, then the estimate interpolates linearly
// inside that bucket. The estimate therefore always lies within the
// power-of-two interval containing the exact sample quantile — at most
// a factor of 2 off, usually much closer. NaN when empty.
func (s *HistSnapshot) Quantile(q float64) float64 {
	n := s.Count()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the k-th smallest observation, k = ⌈q·n⌉ (≥ 1).
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cnt := s.Buckets[i]
		if cnt == 0 {
			continue
		}
		if cum+cnt >= rank {
			lo, hi := bucketBounds(i)
			// Position of the rank within this bucket, in (0, 1]:
			// interpolate as if the bucket's observations were evenly
			// spread over [lo, hi).
			frac := float64(rank-cum) / float64(cnt)
			return lo + (hi-lo)*frac
		}
		cum += cnt
	}
	// Unreachable when counts are consistent; return the top bound.
	lo, hi := bucketBounds(numBuckets - 1)
	_ = lo
	return hi
}
