package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for reported percentiles: a
// percentile is reported only when at least this many samples lie beyond
// it, so its value rests on more than a handful of outliers.
const minBeyond = 10

// percentileLadder is the set of percentiles the rule chooses from.
var percentileLadder = []float64{50, 90, 99, 99.9}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p = 99.9, n = 10000 from rounding up to 9991.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// highestPercentile is the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of the samples; it
// sorts them in place.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[rank(len(xs), p)-1]
}

// median of float samples (mean of the middle two for an even count); it
// sorts them in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
