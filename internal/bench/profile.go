package bench

import (
	"fmt"

	"vmprim/internal/apps"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
	"vmprim/internal/obs"
)

// Profiled experiment runs: one representative workload per evaluation
// table, executed on a machine with the virtual-time profiler (and a
// message trace, for the Chrome export's flow arrows) switched on.
// The workloads reuse the E1–E5 seeds and parameter sets, so a
// profiled run must reproduce the same simulated times as the plain
// tables — the profiler only observes, never perturbs — and the
// obs tests assert exactly that by running each workload with enable
// set both ways.
//
// Each workload is parameterized by a RunSpec (see spec.go): the
// defaults reproduce the tables, while serving and load-harness
// callers override the cube dimension and problem size and run on
// machines they own (typically pooled) via RunSpec.RunOn.

// profileTraceLimit bounds the per-processor message trace kept for
// the Chrome export's flow events. Only processor 0 and its neighbors
// are exported, so a modest bound suffices.
const profileTraceLimit = 4096

// ProfileOpts selects what a profiled workload records and on which
// cost model it runs.
type ProfileOpts struct {
	// Profile arms the span profiler (and the message trace for the
	// Chrome export's flow arrows).
	Profile bool
	// CritPath arms the critical-path tracer; the result's CritPath
	// (and, with Profile also set, Profile.Crit) carries the decoded
	// path and the cost-model conformance report.
	CritPath bool
	// Params overrides the machine's cost model; nil means the tables'
	// default CM2. RunSpec.RunOn ignores it (the caller built the
	// machine); it applies when ProfileRunOpts constructs one.
	Params *costmodel.Params
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
	// across profiling settings and across GOMAXPROCS values, which the
	// determinism stress tests assert.
	Clocks []costmodel.Time
	Links  []obs.LinkLoad
	// Profile is the profile of the last run, or nil when enable was
	// false.
	Profile *obs.Profile
	// CritPath is the critical path of the last run, or nil when the
	// tracer was off. Like Times it is simulated truth: bit-identical
	// at every GOMAXPROCS.
	CritPath *obs.CritPath
	// Metrics is the machine's metrics snapshot after the workload:
	// cumulative counters over every run the machine ever executed,
	// plus the last run's gauges. Always populated. On a fresh machine
	// this is exactly the workload's own metrics; on a pooled machine,
	// subtract a pre-run snapshot with metrics.Delta to isolate them.
	Metrics *metrics.Snapshot
}

// ProfileRun executes the representative workload of experiment id on
// a fresh machine, with the profiler and critical-path tracer enabled
// or not, and returns the simulated times of every run plus (when
// enabled) the profile and critical path of the final run. The same
// seeds and machine parameters as the experiment tables are used, so
// the times line up with EXPERIMENTS.md.
func ProfileRun(id string, enable bool) (*ProfileResult, error) {
	return ProfileRunOpts(id, ProfileOpts{Profile: enable, CritPath: enable})
}

// ProfileRunOpts is ProfileRun with the recording switches and cost
// model spelled out.
func ProfileRunOpts(id string, opts ProfileOpts) (*ProfileResult, error) {
	spec, err := RunSpec{Exp: id}.Normalized()
	if err != nil {
		return nil, err
	}
	params := costmodel.CM2()
	if opts.Params != nil {
		params = *opts.Params
	}
	m, err := hypercube.New(spec.D, params)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return spec.RunOn(m, opts)
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

// profileE1 exercises all four primitives back to back in a single
// run; the table configuration is n=512 on the d=10 cube.
func profileE1(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	g := embed.SplitFor(d, n, n)
	a, err := core.FromDense(g, RandMat(100+int64(n), n, n), embed.Block, embed.Block)
	if err != nil {
		return nil, err
	}
	xv, err := core.VectorFromSlice(g, RandVec(200+int64(n), n), core.RowAligned, embed.Block, 0, false)
	if err != nil {
		return nil, err
	}
	row := n / 2
	elapsed, err := timedRun(m, g, func(e *core.Env) {
		e.ExtractRow(a, row, true)
		e.InsertRow(a, xv, row)
		e.Distribute(xv)
		e.ReduceRows(a, core.OpSum, true)
	})
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("extract+insert+distribute+reduce, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}

// profileE2 runs the E2 Reduce and Distribute pair; the table
// configuration is n=512 on the d=8 machine.
func profileE2(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	g := embed.SplitFor(d, n, n)
	a, err := core.FromDense(g, RandMat(300+int64(d), n, n), embed.Block, embed.Block)
	if err != nil {
		return nil, err
	}
	xv, err := core.VectorFromSlice(g, RandVec(400, n), core.RowAligned, embed.Block, 0, false)
	if err != nil {
		return nil, err
	}
	elapsed, err := timedRun(m, g, func(e *core.Env) {
		e.ReduceRows(a, core.OpSum, true)
		e.SpreadRows(xv, n, embed.Block)
	})
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("reduce+spread, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}

// profileE3 runs the three vector-matrix variants; the table
// configuration is n=512 on the d=10 machine. The profile is of the
// last (naive) run, whose span tree shows the router storm the
// primitives avoid.
func profileE3(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	a := RandMat(500+int64(n), n, n)
	x := RandVec(600+int64(n), n)
	var times []costmodel.Time
	for _, variant := range []apps.MatvecVariant{apps.MatvecPrimitive, apps.MatvecFused, apps.MatvecNaive} {
		_, elapsed, _, err := apps.RunVecMat(m, a, x, variant)
		if err != nil {
			return nil, err
		}
		times = append(times, elapsed)
	}
	desc := fmt.Sprintf("matvec primitive, fused, naive, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, times...), nil
}

// profileE4 runs primitive-based Gaussian elimination; the table
// configuration is n=128 on the d=8 machine.
func profileE4(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	a, b := RandSystem(700+int64(n), n)
	_, elapsed, err := apps.SolveGauss(m, a, b, apps.DefaultGaussOpts())
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("gauss primitives, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}

// profileE5 runs primitive-based simplex on an N x 3N/2 program; the
// table configuration is 32x48 on the d=8 machine.
func profileE5(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, rows := s.D, s.N
	cols := rows + rows/2
	c, a, b := RandLP(800+int64(rows), rows, cols)
	_, elapsed, err := apps.SolveSimplex(m, c, a, b, apps.DefaultSimplexOpts())
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("simplex primitives, %dx%d, p=%d", rows, cols, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}
