package main

import (
	"math"
	"sync"
	"time"
)

// The host the benchmark runs on changes speed under it. On the 2-vCPU
// sandbox it was written on, the same binary on the same inputs ran at
// anything from 68 to 163 ops/s within one hour, slow for minutes at a
// time, with no steal time to show for it; ten runs in a row spread by
// 3% in a quiet half hour and by 36-66% in a bad one. No statistic taken
// inside a run removes a slowdown that outlasts the run. So every timed
// loop stops at fixed points, with no op in flight, and times a fixed
// piece of work that uses none of the code under test. The run's timing
// metrics are then stated at the reference host speed: multiplied
// (rates) or divided (times) by how much slower than on the quiet sizing
// host the calibrations of that run went. The raw values are printed
// next to them.
//
// The fixed work has two parts, because the host slows down in two ways:
// sometimes hand-offs between goroutines get slower and plain loops
// barely do, sometimes it is the other way round, and the workloads feel
// both. One part is bound by hand-offs (8 goroutine pairs passing a 2 KB
// buffer back and forth over unbuffered channels), the other by the
// loops over the buffer (4 pairs, 16 KB). Each part's slowdown is its
// median time over its time on the quiet sizing host, and the host's is
// the geometric mean of the two.
//
// How well that works was measured, not assumed: for 18 minutes that
// had several slow spells, calibrations were interleaved with short
// stretches of all four workloads, and medians taken over 20 s windows.
// The blend correlates with the workloads' op times at 0.92-0.94 with a
// slope of 0.95-1.14 (serve 1.34: it slows down more than anything
// tried); dividing by it narrows the windows' interquartile spread from
// 5.9/7.9/6.8/12.7% (prims/route/apps/serve) to 5.0/3.4/3.9/8.5% and
// their full range from 52/45/43/68% to 24/22/17/30%. Either part alone
// does worse (slopes 1.3-1.8 and 0.6-0.9), and so did 32 pairs (three
// times the run-to-run noise of 8), a butterfly all-reduce over
// channels, a two-goroutine memory sweep and pipe I/O. On a quiet host
// the correction costs something instead: it adds its own few percent
// of run-to-run noise to values that then spread by only 2-5% raw.

const (
	// calibSegments is how many stretches a timed loop is cut into, with
	// a calibration before each and one at the end: 41 samples a run,
	// about a third of a second in all.
	calibSegments = 40

	// What one calibration's two parts take on the sizing host when it is
	// quiet. They only fix the scale: with them, corrected and raw values
	// agree on that host at its best.
	calibRefHandoffMs = 2.8
	calibRefLoopMs    = 3.45
)

// calibSink keeps the compiler from dropping the calibration's sums.
var calibSink float64

// calibrate does the fixed work and returns how long the host took over
// each part. It allocates only its channels and buffers.
func calibrate() (handoff, loops time.Duration) {
	return pingPong(8, 600, 256), pingPong(4, 400, 2048)
}

// pingPong runs `pairs` goroutine pairs at once; each pair hands a
// buffer of `words` words back and forth `rounds` times over unbuffered
// channels, writing it before and summing it after every hand-off.
func pingPong(pairs, rounds, words int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]float64, 2*pairs)
	for i := 0; i < pairs; i++ {
		ping, pong := make(chan []float64), make(chan []float64)
		wg.Add(2)
		go func(sum *float64) {
			defer wg.Done()
			buf, s := make([]float64, words), 0.0
			for r := 0; r < rounds; r++ {
				for j := range buf {
					buf[j] = float64(r + j)
				}
				ping <- buf
				buf = <-pong
				for _, v := range buf {
					s += v
				}
			}
			*sum = s
		}(&sums[2*i])
		go func(sum *float64) {
			defer wg.Done()
			buf, s := make([]float64, words), 0.0
			for r := 0; r < rounds; r++ {
				got := <-ping
				for j, v := range got {
					s += v
					buf[j] = v + 1
				}
				pong <- buf
				buf = got
			}
			*sum = s
		}(&sums[2*i+1])
	}
	wg.Wait()
	for _, s := range sums {
		calibSink += s
	}
	return time.Since(start)
}

// calibSamples are the calibration times of one run, in ms.
type calibSamples struct{ handoff, loops []float64 }

// slowdown is how much slower than the reference the host ran the
// calibrations of one run, 1 without any.
func (c calibSamples) slowdown() float64 {
	if len(c.handoff) == 0 {
		return 1
	}
	return math.Sqrt(median(c.handoff) / calibRefHandoffMs * median(c.loops) / calibRefLoopMs)
}
