package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 150 ops leave 15 samples beyond the p90.
	big := make([]float64, 150)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.9); got != 135 {
		t.Errorf("p90 of 1..150 = %v, want 135", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4): the
// acceptance runs compute their spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10.2, 9.8, 10.0, 10.5, 9.9], n=4) == [9.85, 10.0, 10.35]
	q1, q3 = quartiles([]float64{10.2, 9.8, 10.0, 10.5, 9.9})
	if !near(q1, 9.85) || !near(q3, 10.35) {
		t.Errorf("quartiles = %v, %v; Python gives 9.85, 10.35", q1, q3)
	}
	if got := iqr([]float64{10.2, 9.8, 10.0, 10.5, 9.9}); !near(got, 0.5) {
		t.Errorf("iqr = %v, want 0.5", got)
	}
	if got := iqr([]float64{7}); got != 0 {
		t.Errorf("iqr of one value = %v, want 0", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

// One slow segment must not move the reported rate: that is what the
// median over segments is for.
func TestSegmentRateIgnoresOneBurst(t *testing.T) {
	var done []time.Duration
	now := time.Duration(0)
	for op := 0; op < 50; op++ {
		step := 10 * time.Millisecond
		if op >= 20 && op < 30 { // the third of five segments runs 5x slower
			step = 50 * time.Millisecond
		}
		now += step
		done = append(done, now)
	}
	if got := segmentRate(done, 5); !near(got, 100) {
		t.Errorf("segmentRate = %v ops/s, want 100", got)
	}
	// Fewer ops than segments: one segment over everything.
	if got := segmentRate([]time.Duration{time.Second, 2 * time.Second}, 5); !near(got, 1) {
		t.Errorf("segmentRate of 2 ops = %v, want 1", got)
	}
	if got := segmentRate(nil, 5); got != 0 {
		t.Errorf("segmentRate of nothing = %v, want 0", got)
	}
}

// Without calibrations there is nothing to correct; with them, the
// median sample of each part sets the scale, and the two parts blend as
// a geometric mean.
func TestHostSlowdown(t *testing.T) {
	if got := (calibSamples{}).slowdown(); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
	c := calibSamples{
		handoff: []float64{2 * calibRefHandoffMs, 40 * calibRefHandoffMs, calibRefHandoffMs, 2 * calibRefHandoffMs, 3 * calibRefHandoffMs},
		loops:   []float64{8 * calibRefLoopMs, 8 * calibRefLoopMs, 8 * calibRefLoopMs, 9 * calibRefLoopMs, calibRefLoopMs},
	}
	if got := c.slowdown(); !near(got, 4) {
		t.Errorf("slowdown = %v, want 4 = sqrt(2 * 8)", got)
	}
	if handoff, loops := calibrate(); handoff <= 0 || loops <= 0 {
		t.Errorf("calibrate took %v and %v", handoff, loops)
	}
}
