package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile of an ascending slice by nearest
// rank, 0 when it is empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the middle two for an
// even count), 0 when it is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is num / den, and 0 where there is no denominator: a loop too
// short to have filled one must not put an infinity into the result.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), so a
// spread computed here agrees with the one the acceptance runs compute.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqr is the interquartile distance of xs: the run-to-run spread a
// bound is compared with. With fewer than two values there is no spread
// to report.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// segmentRate splits the ops of a loop into `segments` equal
// consecutive groups by completion order and returns the median
// group's ops per second, so that one burst from a noisy neighbour
// moves at most one group and not the reported rate. done holds every
// op's completion time since the loop started, ascending.
func segmentRate(done []time.Duration, segments int) float64 {
	n := len(done)
	if n == 0 {
		return 0
	}
	if n < segments {
		segments = 1
	}
	rates := make([]float64, 0, segments)
	for k := 0; k < segments; k++ {
		lo, hi := k*n/segments, (k+1)*n/segments
		var from time.Duration
		if lo > 0 {
			from = done[lo-1]
		}
		if wall := done[hi-1] - from; wall > 0 {
			rates = append(rates, float64(hi-lo)/wall.Seconds())
		}
	}
	return median(rates)
}
