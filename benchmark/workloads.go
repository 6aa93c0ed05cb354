package main

// workloads is the benchmark's fixed set. The op counts were sized on a
// 2-vCPU host so that each takes about 20 s there; every workload keeps
// at least 150 ops so that 15 or more samples lie beyond the p90.
var workloads = []*workloadDef{
	{
		name: "prims",
		why: "the paper's four primitives at steady state: host time is link transport, collective trees " +
			"and the per-Run dispatch/join of 256 workers; the router does nothing",
		clients: 1, ops20s: 2400, warmup: 40, short: 200,
		setup: setupPrims,
		spans: []spanMetric{
			{"core.extractrow", "core.extractrow_us", msToUs},
			{"core.insertrow", "core.insertrow_us", msToUs},
			{"core.distribute", "core.distribute_us", msToUs},
			{"core.spreadrows", "core.spreadrows_us", msToUs},
			{"core.reducerows", "core.reducerows_us", msToUs},
			{"core.reducecolloc", "core.reducecolloc_us", msToUs},
		},
	},
	{
		name: "route",
		why: "everything rides internal/router and core/remap.go, the substrate of every naive column of " +
			"E3-E5 and most of the wall time of the reproduction; the collectives do little",
		clients: 1, ops20s: 150, warmup: 3, short: 8,
		setup: setupRoute,
		spans: []spanMetric{
			{"core.transpose", "core.transpose_ms", 1},
			{"router.route_perm", "router.route_perm_ns_per_msg", msToNs / (1 << routeDim)},
			{"router.route_hotspot", "router.route_hotspot_ns_per_msg", msToNs / (1 << routeDim)},
			{"apps.matvec_naive", "apps.matvec_naive_ms", 1},
			{"apps.gauss_naive", "apps.gauss_naive_ms", 1},
			{"apps.simplex_naive", "apps.simplex_naive_ms", 1},
		},
	},
	{
		name: "apps",
		why: "the same hypercube and collective layers as prims used differently: one long Run of ~10^5 " +
			"few-word messages, so per-message start-up dominates and per-Run dispatch is amortised away",
		clients: 1, ops20s: 160, warmup: 3, short: 8,
		setup: setupApps,
		spans: []spanMetric{
			{"apps.gauss", "apps.gauss_ms", 1},
			{"apps.simplex", "apps.simplex_ms", 1},
			{"apps.matvec_fused", "apps.matvec_fused_ms", 1},
			{"apps.matvec_primitive", "apps.matvec_primitive_ms", 1},
			{"apps.matmul", "apps.matmul_ms", 1},
		},
	},
	{
		name: "serve",
		why: "the only workload with the full recorder set armed and with rendering, registry, pool-miss " +
			"and HTTP work; cubes are tiny, so link-transport gains should barely register",
		clients: serveClients, ops20s: 2000, warmup: 10, short: 2 * scrapeEvery,
		setup: setupServe,
		spans: []spanMetric{
			{"serve.submit", "serve.submit_ms", 1},
			{"serve.wait", "serve.wait_ms", 1},
			{"serve.profile", "serve.profile_ms", 1},
			{"serve.critpath", "serve.critpath_ms", 1},
			{"serve.trace", "serve.trace_ms", 1},
			{"serve.runmetrics", "serve.runmetrics_ms", 1},
		},
	},
}

func workloadByName(name string) *workloadDef {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}
