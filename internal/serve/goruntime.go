package serve

import (
	rtmetrics "runtime/metrics"
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

// goRuntime mirrors goSeries into a metrics registry.
type goRuntime struct {
	// mu serializes refreshes, so a counter advances by the runtime's
	// delta since the previous scrape exactly once.
	mu      sync.Mutex
	samples []rtmetrics.Sample
	set     []func(uint64) // set[i] stores samples[i]
}

func newGoRuntime(r *metrics.Registry) *goRuntime {
	g := &goRuntime{
		samples: make([]rtmetrics.Sample, len(goSeries)),
		set:     make([]func(uint64), len(goSeries)),
	}
	for i, s := range goSeries {
		g.samples[i].Name = s.sample
		if s.counter {
			c := r.Counter(s.name, s.help)
			g.set[i] = func(v uint64) {
				if d := int64(v) - c.Value(); d > 0 {
					c.Add(d)
				}
			}
		} else {
			gauge := r.Gauge(s.name, s.help)
			g.set[i] = func(v uint64) { gauge.Set(float64(v)) }
		}
	}
	return g
}

// refresh reads the runtime's current samples into the registry.
func (g *goRuntime) refresh() {
	g.mu.Lock()
	defer g.mu.Unlock()
	rtmetrics.Read(g.samples)
	for i, s := range g.samples {
		if s.Value.Kind() == rtmetrics.KindUint64 { // KindBad: unknown to this runtime
			g.set[i](s.Value.Uint64())
		}
	}
}
