package main

import (
	"math"
	"slices"
	"time"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile of the samples (sorted
// in place). NaN when empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	k = max(0, min(k, len(xs)-1))
	return xs[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailQuantile is the highest percentile, capped at p99, with at least
// tailSamples samples beyond it. With at most 2·tailSamples samples that
// percentile is no tail at all (it is the median or below), so the tail
// is the slowest sample (q = 1).
func tailQuantile(n int) float64 {
	if n <= 2*tailSamples {
		return 1
	}
	return min(0.99, float64(n-tailSamples)/float64(n))
}

// quartiles returns the first quartile, median and third quartile with
// the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so spreads printed here match the ones
// computed from the raw result values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's exclusive method verbatim, including its clamp of
		// the bracket to [1, n-1] (which extrapolates for tiny n).
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// durs converts durations to float64 seconds scaled by unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
