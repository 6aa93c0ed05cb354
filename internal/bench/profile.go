package bench

import (
	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
	"vmprim/internal/obs"
)

// Profiled experiment runs: one representative workload per evaluation
// table (profileE1..E5, defined beside their tables in experiments.go),
// executed with the virtual-time profiler (and a message trace, for the
// Chrome export's flow arrows) and the critical-path tracer armed or
// not. The workloads share the E1–E5 seeds and primitives with the
// tables, and the profiler only observes, never perturbs: the obs tests
// assert that by running each workload with the recorders off and on.
//
// Each workload is parameterized by a RunSpec (see spec.go): the
// defaults are the registry's, while serving and load-harness callers
// override the cube dimension and problem size and run on machines they
// own (typically pooled) via RunSpec.RunOn.

// profileTraceLimit bounds the messages each sender records for the
// Chrome export's flow events. Only messages on processor 0's links are
// recorded, and E4 at its default size, the busiest, draws 4,060 in all.
const profileTraceLimit = 4096

// ProfileOpts selects what a profiled workload records. The cost model
// is the RunSpec's (or, for RunOn, the machine's).
type ProfileOpts struct {
	// Profile arms the span profiler (and the message trace for the
	// Chrome export's flow arrows).
	Profile bool
	// CritPath arms the critical-path tracer; the result's CritPath
	// (and, with Profile also set, Profile.Crit) carries the decoded
	// path and the cost-model conformance report.
	CritPath bool
}

// ProfileResult is one profiled experiment workload.
type ProfileResult struct {
	// ID is the experiment id (E1..E5).
	ID string
	// Desc names the runs behind Times, in order.
	Desc string
	// Times holds the simulated elapsed time of every Run executed by
	// the workload, in execution order. These are bit-identical with
	// profiling on or off.
	Times []costmodel.Time
	// Clocks holds every processor's final virtual clock after the last
	// run, and Links the nonzero directed-link word loads of that run,
	// hottest first. Like Times they are deterministic: bit-identical
	// across profiling settings and across schedules, which
	// TestScheduleIndependence (internal/hypercube) asserts.
	Clocks []costmodel.Time
	Links  []obs.LinkLoad
	// Profile is the profile of the last run, or nil when the profiler
	// was off.
	Profile *obs.Profile
	// CritPath is the critical path of the last run, or nil when the
	// tracer was off. Like Times it is simulated truth: bit-identical
	// under every schedule.
	CritPath *obs.CritPath
	// Metrics is the machine's metrics snapshot after the workload:
	// cumulative counters over every run the machine ever executed,
	// plus the last run's gauges. Always populated. On a fresh machine
	// this is exactly the workload's own metrics; on a pooled machine,
	// subtract a pre-run snapshot with metrics.Delta to isolate them.
	Metrics *metrics.Snapshot
}

// finish assembles the result, pulling the machine's profile and
// critical path of the most recent run when their recorders were on.
func finish(s RunSpec, desc string, m *hypercube.Machine, opts ProfileOpts, times ...costmodel.Time) *ProfileResult {
	res := &ProfileResult{
		ID: s.Exp, Desc: desc, Times: times,
		Clocks:  m.Clocks(),
		Links:   m.Congestion(0),
		Metrics: m.Metrics().Snapshot(),
	}
	if opts.Profile {
		res.Profile = m.Profile()
	}
	if opts.CritPath {
		res.CritPath = m.CritPath()
	}
	return res
}
