package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs, or the mean of the two middle values when
// len(xs) is even, as Python's statistics.median does. It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones a Python check computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(ld-1, j))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median: the run-to-run
// noise measure bounds are compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// tail returns the highest percentile, at most the 99th, that has at least
// ten samples beyond it, together with that percentile. A percentile with
// fewer samples beyond it would be decided by a handful of outliers. ok is
// false when there are fewer than eleven samples.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	idx := min(n-11, int(math.Ceil(0.99*float64(n)))-1)
	return s[idx], 100 * float64(idx+1) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sum adds xs.
func sum[T time.Duration | float64](xs []T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}

// perUnit divides total by n, returning 0 for n == 0.
func perUnit(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
