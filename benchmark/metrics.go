package main

// A metricDef names one reported number. Per-layer metrics carry no
// bound.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is what BENCHMARK.json says: the share of the parent's median
	// by which the benchmark driver lets the metric worsen before it
	// rejects a change. It cannot be tighter than this host's run-to-run
	// spread, or the driver refuses the benchmark itself.
	bound float64
	// want is the bound the issue set, and the one -compare judges with:
	// where the runs spread wider than it, -compare says "unresolved"
	// instead of passing the metric on a wider bound.
	want float64
	// floor is the absolute worsening, in the metric's unit, that -compare
	// lets pass whatever share of the baseline it is.
	floor float64
}

// endToEnd lists what a user of the system sees, the same names on
// every workload, measured with tracing off. BENCHMARK.json repeats
// name, unit, better and bound; TestBenchmarkJSONMatchesTables keeps the
// two equal.
//
// The issue's bounds are in want. The driver's bounds are wider, because
// the driver measures the same commit in two sets of ten runs and
// accepts the benchmark only if each metric's interquartile spread and
// the shift between the two medians stay inside the bound. The 2-vCPU
// host the benchmark was written on changes speed by up to 2x for
// minutes at a time. With the timing metrics stated at the reference
// host speed (calib.go), ten runs spread by 3-7% in a quiet half hour
// and, with an earlier calibration, by 6-12% in a bad one (serve:
// 33-35%), so the timing metrics carry the widest bound a metric may
// have. Which allocations a run makes depends on how its goroutines
// interleave, more so on a slow host: over seven sets of ten runs
// allocs_per_op spread by up to 2.1% (apps), alloc_kb_per_op by up to
// 4.6% (serve, where which pooled machines get evicted depends on how
// the two clients interleave) and live_heap_mb by up to 12% (apps); their
// bounds are three times that, or the widest allowed. Tighter questions
// go to -compare with ten interleaved pairs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, want: 0.25, floor: 0.05},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, want: 0.10},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25, want: 0.10},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.07, want: 0.02},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.15, want: 0.03},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.25, want: 0.10},
}

// alsoCompared are the issue's end-to-end names that BENCHMARK.json
// cannot carry and -compare still judges; every untraced run reports
// them in its informational block. retained_kb_per_op is 0 on a leak-free
// workload, and a bound that is a share of the baseline cannot hold a 0:
// the driver sees retention as live_heap_mb, which is comparable because
// the op count is fixed (-compare refuses two sides of different op
// counts). op_p90_ms spread by up to 21% on serve, so the issue has it
// moved here rather than given a wider bound. The issue's failed_share
// needs no row: any failed op makes the run incorrect and fails -compare.
var alsoCompared = []metricDef{
	{name: "op_p90_ms", unit: "ms", better: "lower", want: 0.15},
	{name: "retained_kb_per_op", unit: "KB", better: "lower", want: 0.10, floor: 1},
}

// A spanMetric turns the median duration of a cycle span into a
// per-layer metric: metric = median ms * scale.
type spanMetric struct {
	span, metric string
	scale        float64
}

const (
	msToUs = 1e3
	msToNs = 1e6
)

// perLayer lists every per-layer metric a traced run reports. Where a
// line names workloads, those are the end-to-end numbers the metric is
// expected to move; see README.md for the full map.
var perLayer = []metricDef{
	// The traced loop itself, for the workload the run is about.
	{name: "trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "cycle_span_coverage", unit: "ratio", better: "higher"},
	{name: "retained_kb_per_op", unit: "KB", better: "lower"},
	{name: "sim_us_per_op", unit: "us", better: "lower"},
	{name: "sim_msgs_per_op", unit: "count", better: "lower"},
	{name: "sim_words_per_op", unit: "count", better: "lower"},
	{name: "host_ns_per_sim_msg", unit: "ns", better: "lower"},

	// hypercube: probes on a warm d=8 machine, counters from the prims loop.
	{name: "hypercube.run_empty_us", unit: "us", better: "lower"},
	{name: "hypercube.exchange_ns_per_msg", unit: "ns", better: "lower"},
	{name: "hypercube.sendrecv_ns_per_msg", unit: "ns", better: "lower"},
	{name: "hypercube.exchange_ns_per_word", unit: "ns", better: "lower"},
	{name: "hypercube.getbuf_ns", unit: "ns", better: "lower"},
	{name: "hypercube.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "hypercube.recv_parks_per_msg", unit: "ratio", better: "lower"},
	{name: "hypercube.new_close_ms", unit: "ms", better: "lower"},
	{name: "hypercube.rec_flight0_ratio", unit: "ratio", better: "lower"},
	{name: "hypercube.rec_profile_ratio", unit: "ratio", better: "lower"},
	{name: "hypercube.rec_trace_ratio", unit: "ratio", better: "lower"},
	{name: "hypercube.rec_critpath_ratio", unit: "ratio", better: "lower"},
	{name: "hypercube.rec_stream_ratio", unit: "ratio", better: "lower"},
	{name: "hypercube.rec_all_ratio", unit: "ratio", better: "lower"},

	// collective: probes, full mask.
	{name: "collective.bcast_us", unit: "us", better: "lower"},
	{name: "collective.bcastlarge_us", unit: "us", better: "lower"},
	{name: "collective.reduce_us", unit: "us", better: "lower"},
	{name: "collective.reducescatter_us", unit: "us", better: "lower"},
	{name: "collective.allgather_us", unit: "us", better: "lower"},
	{name: "collective.allreduce_us", unit: "us", better: "lower"},
	{name: "collective.gather_us", unit: "us", better: "lower"},
	{name: "collective.scatter_us", unit: "us", better: "lower"},
	{name: "collective.alltoall_us", unit: "us", better: "lower"},
	{name: "collective.scaninclusive_us", unit: "us", better: "lower"},
	{name: "collective.scanexclusive_us", unit: "us", better: "lower"},
	{name: "collective.bcastallport_us", unit: "us", better: "lower"},
	{name: "collective.reduceallport_us", unit: "us", better: "lower"},

	// core: cycle spans of prims and route, host I/O probes.
	{name: "core.extractrow_us", unit: "us", better: "lower"},
	{name: "core.insertrow_us", unit: "us", better: "lower"},
	{name: "core.distribute_us", unit: "us", better: "lower"},
	{name: "core.spreadrows_us", unit: "us", better: "lower"},
	{name: "core.reducerows_us", unit: "us", better: "lower"},
	{name: "core.reducecolloc_us", unit: "us", better: "lower"},
	{name: "core.transpose_ms", unit: "ms", better: "lower"},
	{name: "core.transpose_allocs", unit: "count", better: "lower"},
	{name: "core.fromdense_us", unit: "us", better: "lower"},
	{name: "core.toslice_us", unit: "us", better: "lower"},

	// router: cycle spans of route, Request and allocation probes.
	{name: "router.route_perm_ns_per_msg", unit: "ns", better: "lower"},
	{name: "router.route_hotspot_ns_per_msg", unit: "ns", better: "lower"},
	{name: "router.request_ns_per_msg", unit: "ns", better: "lower"},
	{name: "router.allocs_per_msg", unit: "count", better: "lower"},

	// apps: cycle spans of apps and route.
	{name: "apps.gauss_ms", unit: "ms", better: "lower"},
	{name: "apps.simplex_ms", unit: "ms", better: "lower"},
	{name: "apps.matvec_fused_ms", unit: "ms", better: "lower"},
	{name: "apps.matvec_primitive_ms", unit: "ms", better: "lower"},
	{name: "apps.matmul_ms", unit: "ms", better: "lower"},
	{name: "apps.gauss_naive_ms", unit: "ms", better: "lower"},
	{name: "apps.simplex_naive_ms", unit: "ms", better: "lower"},
	{name: "apps.matvec_naive_ms", unit: "ms", better: "lower"},

	// bench / obs / metrics: direct calls, ms per session (six specs).
	{name: "bench.runon_armed_ms", unit: "ms", better: "lower"},
	{name: "bench.runon_bare_ms", unit: "ms", better: "lower"},
	{name: "obs.profile_json_ms", unit: "ms", better: "lower"},
	{name: "obs.chrometrace_ms", unit: "ms", better: "lower"},
	{name: "obs.critpath_json_ms", unit: "ms", better: "lower"},
	{name: "metrics.prom_ms", unit: "ms", better: "lower"},

	// serve: client-side spans (ms per request) and the server's own
	// /metrics scraped before and after the loop.
	{name: "serve.submit_ms", unit: "ms", better: "lower"},
	{name: "serve.wait_ms", unit: "ms", better: "lower"},
	{name: "serve.profile_ms", unit: "ms", better: "lower"},
	{name: "serve.critpath_ms", unit: "ms", better: "lower"},
	{name: "serve.trace_ms", unit: "ms", better: "lower"},
	{name: "serve.runmetrics_ms", unit: "ms", better: "lower"},
	{name: "serve.scrape_ms", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "serve.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.sse_dropped", unit: "count", better: "lower"},
	{name: "serve.runs_done", unit: "count", better: "higher"},
}

// unitOf looks a metric's unit up in both tables.
func unitOf(name string) string {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
