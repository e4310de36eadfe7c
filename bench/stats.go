package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the choosing-metrics guide's percentile rule: a percentile
// is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted values
// by the nearest-rank method: the smallest value with at least p% of the
// sample at or below it. It returns 0 on an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is ceil(p/100 · n), at least 1; the epsilon keeps a product
// that is a whole number in exact arithmetic (99.9% of 10000) from being
// rounded up past it.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// samplesBeyond is the number of samples strictly above the nearest-rank
// p-th percentile of a sample of n.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// percentileSupported reports whether a sample of n has at least
// minBeyond samples beyond its p-th percentile.
func percentileSupported(n int, p float64) bool {
	return samplesBeyond(n, p) >= minBeyond
}

// highestSupported returns the highest percentile of the ladder that a
// sample of n supports under the rule, or 50 if none does.
func highestSupported(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if percentileSupported(n, p) {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the default "exclusive" method), which is what the benchmark
// contract measures spread with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// quantity the contract compares against a metric's bound.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMs converts to sorted milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// timeOp calls f repeatedly until budget is spent (at least minIters
// times) and returns the median duration of one call.
func timeOp(budget time.Duration, minIters int, f func()) time.Duration {
	var ds []float64
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < budget; i++ {
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}
