package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rankIndex returns the nearest-rank index of the q-th percentile
// (0 < q <= 100) in a sorted sample of n values.
func rankIndex(n int, q float64) int {
	if n <= 0 {
		return -1
	}
	i := int(math.Ceil(q*float64(n)/100)) - 1
	return min(max(i, 0), n-1)
}

// beyond returns how many of n sorted samples lie above the q-th
// percentile's nearest-rank index.
func beyond(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// percentile returns the nearest-rank q-th percentile of xs (which it
// sorts in place); NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), q)]
}

// median is the middle value (mean of the two middle values for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail reports the fixed q-th percentile of xs when at least minBeyond
// samples lie above it, and otherwise the maximum: a sample too small
// for a tail reports its worst case. ok is false in the second case.
func tail(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	if beyond(len(xs), q) >= minBeyond {
		return percentile(xs, q), true
	}
	sort.Float64s(xs)
	return xs[len(xs)-1], false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
