package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tail percentiles: a reported
// percentile must leave at least this many samples above it.
const minBeyond = 10

// dist summarises one set of timing samples.
type dist struct {
	N       int
	P50     float64
	P90     float64
	Tail    float64 // value at TailPct
	TailPct float64 // highest percentile ≤ 99 leaving minBeyond samples above it
	Mean    float64
	Max     float64
}

// summarize sorts a copy of xs and applies the percentile rule.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	tp := tailPct(len(s))
	return dist{
		N:       len(s),
		P50:     percentile(s, 50),
		P90:     percentile(s, 90),
		Tail:    percentile(s, tp),
		TailPct: tp,
		Mean:    sum / float64(len(s)),
		Max:     s[len(s)-1],
	}
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// rank is the 0-based nearest-rank position of the p-th percentile of n
// samples. The epsilon keeps a product like (1-10/11)·11 from rounding up a
// whole rank.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return max(0, min(k, n-1))
}

// tailPct is the highest percentile, capped at 99, whose nearest-rank
// position leaves at least minBeyond samples above it. With too few samples
// for any such percentile the tail is the maximum (100).
func tailPct(n int) float64 {
	if n <= minBeyond {
		return 100
	}
	return math.Min(99, 100*(1-float64(minBeyond)/float64(n)))
}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// position of n samples.
func beyond(n int, p float64) int {
	return n - 1 - rank(n, p)
}
