package serve

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"

	"vmprim/internal/metrics"
)

// goSeries are the Go runtime samples /metrics exports, read with
// runtime/metrics at scrape time. Cumulative samples are counters.
var goSeries = []struct {
	sample, name, help string
	counter            bool
}{
	{"/gc/cycles/total:gc-cycles", "vmprimd_go_gc_cycles_total", "completed GC cycles", true},
	{"/gc/heap/allocs:bytes", "vmprimd_go_heap_alloc_bytes_total", "bytes allocated on the heap since start", true},
	{"/gc/heap/live:bytes", "vmprimd_go_heap_live_bytes", "heap bytes marked live by the last GC", false},
	{"/sched/goroutines:goroutines", "vmprimd_go_goroutines", "live goroutines", false},
	{"/memory/classes/heap/stacks:bytes", "vmprimd_go_stack_bytes", "bytes of goroutine stack memory in use", false},
}

// goHistograms are the runtime's latency distributions /metrics exports.
// The runtime keeps each as cumulative counts over fine buckets; a scrape
// folds the counts added since the previous scrape into goHistBounds.
var goHistograms = []struct{ sample, name, help string }{
	{"/sched/pauses/total/gc:seconds", "vmprimd_go_gc_pause_seconds", "stop-the-world pauses of the garbage collector"},
	{"/sched/latencies:seconds", "vmprimd_go_sched_latency_seconds", "time goroutines spent runnable before they ran"},
}

// goHistBounds are the exported buckets' upper bounds in seconds, one a
// decade from 1µs to 1s. A runtime bucket is counted in the first bound
// at or above its upper edge, so no cumulative count includes an
// observation above its bound. The runtime keeps no sum: _sum adds up
// each runtime bucket's midpoint (its finite edge if the other is
// infinite), an estimate.
var goHistBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// goRuntime mirrors goSeries and goHistograms into a metrics registry.
type goRuntime struct {
	// mu serializes refreshes, so a counter advances by the runtime's
	// delta since the previous scrape exactly once.
	mu      sync.Mutex
	samples []rtmetrics.Sample
	store   []func(rtmetrics.Value) // store[i] stores samples[i]
}

func newGoRuntime(r *metrics.Registry) *goRuntime {
	g := &goRuntime{}
	add := func(sample string, store func(rtmetrics.Value)) {
		g.samples = append(g.samples, rtmetrics.Sample{Name: sample})
		g.store = append(g.store, store)
	}
	for _, s := range goSeries {
		if s.counter {
			c := r.Counter(s.name, s.help)
			add(s.sample, func(v rtmetrics.Value) {
				if d := int64(v.Uint64()) - c.Value(); d > 0 {
					c.Add(d)
				}
			})
		} else {
			gauge := r.Gauge(s.name, s.help)
			add(s.sample, func(v rtmetrics.Value) { gauge.Set(float64(v.Uint64())) })
		}
	}
	for _, s := range goHistograms {
		add(s.sample, histFolder(r.Histogram(s.name, s.help, goHistBounds)))
	}
	return g
}

// histFolder returns the fold of one runtime histogram into h: what the
// runtime counted since the previous fold, rebinned into goHistBounds.
func histFolder(h *metrics.Histogram) func(rtmetrics.Value) {
	var prev []uint64 // the runtime's counts at the previous fold
	counts := make([]int64, len(goHistBounds)+1)
	return func(v rtmetrics.Value) {
		rh := v.Float64Histogram()
		if len(prev) != len(rh.Counts) {
			prev = make([]uint64, len(rh.Counts))
		}
		clear(counts)
		var sum float64
		for i, c := range rh.Counts {
			d := c - prev[i]
			if d == 0 {
				continue
			}
			prev[i] = c
			lo, hi := rh.Buckets[i], rh.Buckets[i+1]
			counts[sort.SearchFloat64s(goHistBounds, hi)] += int64(d)
			mid := (lo + hi) / 2
			if math.IsInf(lo, -1) {
				mid = hi
			} else if math.IsInf(hi, 1) {
				mid = lo
			}
			sum += float64(d) * mid
		}
		h.AddBuckets(counts, sum)
	}
}

// refresh reads the runtime's current samples into the registry.
func (g *goRuntime) refresh() {
	g.mu.Lock()
	defer g.mu.Unlock()
	rtmetrics.Read(g.samples)
	for i, s := range g.samples {
		if s.Value.Kind() != rtmetrics.KindBad { // KindBad: unknown to this runtime
			g.store[i](s.Value)
		}
	}
}
