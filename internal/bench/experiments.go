package bench

import (
	"fmt"

	"vmprim/internal/apps"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// Tables E1–E5: the reconstructed evaluation tables (see DESIGN.md).
// All timings are simulated microseconds on the CM2-like parameter set;
// shapes, ratios and crossovers are the reproduction target.
//
// Each experiment is defined once. Its seeded inputs and its
// per-primitive closures are shared by its table builder (the sizes of
// EXPERIMENTS.md, one Run per timing) and by its profiled workload (one
// RunSpec size on a caller's machine, the primitives back to back). The
// registry in table.go pairs the two and holds the RunSpec defaults.

// timedRun executes one SPMD body and returns the simulated time.
func timedRun(m *hypercube.Machine, g embed.Grid, body func(e *core.Env)) (costmodel.Time, error) {
	return m.Run(func(p *hypercube.Proc) { body(core.NewEnv(p, g)) })
}

// timeEach times each body in a run of its own, in order.
func timeEach(m *hypercube.Machine, g embed.Grid, bodies []func(*core.Env)) ([]costmodel.Time, error) {
	times := make([]costmodel.Time, len(bodies))
	for i, body := range bodies {
		elapsed, err := timedRun(m, g, body)
		if err != nil {
			return nil, err
		}
		times[i] = elapsed
	}
	return times, nil
}

// runBackToBack executes the bodies in one run, in order, each in a
// step scope of its own, and returns its simulated time.
func runBackToBack(m *hypercube.Machine, g embed.Grid, bodies []func(*core.Env)) (costmodel.Time, error) {
	return timedRun(m, g, func(e *core.Env) {
		for _, body := range bodies {
			step := e.Mark()
			body(e)
			e.Release(step)
		}
	})
}

// e1Prims returns E1's four primitives, in table column order, over its
// seeded n x n matrix and row-aligned vector on the d-cube.
func e1Prims(d, n int) (embed.Grid, []func(*core.Env), error) {
	g := embed.SplitFor(d, n, n)
	a, err := core.FromDense(g, RandMat(100+int64(n), n, n), embed.Block, embed.Block)
	if err != nil {
		return g, nil, err
	}
	xv, err := core.VectorFromSlice(g, RandVec(200+int64(n), n), core.RowAligned, embed.Block, 0, false)
	if err != nil {
		return g, nil, err
	}
	row := n / 2
	return g, []func(*core.Env){
		func(e *core.Env) { e.ExtractRow(a, row, true) },
		func(e *core.Env) { e.InsertRow(a, xv, row) },
		func(e *core.Env) { e.Distribute(xv) },
		func(e *core.Env) { e.ReduceRows(a, core.OpSum, true) },
	}, nil
}

// E1Primitives times each of the four primitives on n x n matrices at
// a fixed machine size (d=10, p=1024), the shape of the paper's
// primitive-timing table.
func E1Primitives() (*Table, error) {
	const d = 10
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("primitive timings, p=%d, CM2-like params (simulated us)", m.P()),
		Columns: []string{"n", "extract(row)", "insert(row)", "distribute", "reduce(rows,+)"},
		Notes:   "times grow as m/p + lg p; at small n the lg p start-up term dominates, at large n the m/p volume term",
	}
	for _, n := range []int{64, 128, 256, 512, 1024} {
		g, prims, err := e1Prims(d, n)
		if err != nil {
			return nil, err
		}
		times, err := timeEach(m, g, prims)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, float64(times[0]), float64(times[1]), float64(times[2]), float64(times[3]))
	}
	return t, nil
}

// profileE1 runs all four primitives back to back in a single run.
func profileE1(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	g, prims, err := e1Prims(d, n)
	if err != nil {
		return nil, err
	}
	elapsed, err := runBackToBack(m, g, prims)
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("extract+insert+distribute+reduce, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}

// e2Prims returns E2's Reduce and Distribute (a row-aligned vector
// spread down the rows), in table column order, over its seeded n x n
// inputs on the d-cube.
func e2Prims(d, n int) (embed.Grid, []func(*core.Env), error) {
	g := embed.SplitFor(d, n, n)
	a, err := core.FromDense(g, RandMat(300+int64(d), n, n), embed.Block, embed.Block)
	if err != nil {
		return g, nil, err
	}
	xv, err := core.VectorFromSlice(g, RandVec(400, n), core.RowAligned, embed.Block, 0, false)
	if err != nil {
		return g, nil, err
	}
	return g, []func(*core.Env){
		func(e *core.Env) { e.ReduceRows(a, core.OpSum, true) },
		func(e *core.Env) { e.SpreadRows(xv, n, embed.Block) },
	}, nil
}

// E2Scaling times Reduce and Distribute for a fixed 512 x 512 matrix
// while the machine grows, and reports the processor-time product
// relative to the modelled serial time: the m > p lg p optimality
// claim makes the ratio flatten while m/p >> lg p and rise once
// start-ups dominate.
func E2Scaling() (*Table, error) {
	const n = 512
	params := costmodel.CM2()
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("Reduce/Distribute on %dx%d vs machine size (simulated us)", n, n),
		Columns: []string{"p", "m/p", "T_reduce", "pT/T1_reduce", "T_dist", "pT/T1_dist"},
		Notes:   "pT/T1 is the processor-time product over the serial time; near-constant while m/p > lg p (the paper's optimality regime), rising once start-up dominates",
	}
	// Modelled serial baselines: m combining operations for the
	// reduction, m element moves for the distribution.
	serialReduce := params.FlopCost(n * n)
	serialDist := params.FlopCost(n * n)
	for _, d := range []int{2, 4, 6, 8, 10} {
		m, err := hypercube.New(d, params)
		if err != nil {
			return nil, err
		}
		defer m.Close()
		g, prims, err := e2Prims(d, n)
		if err != nil {
			return nil, err
		}
		times, err := timeEach(m, g, prims)
		if err != nil {
			return nil, err
		}
		tReduce, tDist := times[0], times[1]
		p := float64(m.P())
		t.AddRow(m.P(), n*n/m.P(),
			float64(tReduce), p*float64(tReduce)/float64(serialReduce),
			float64(tDist), p*float64(tDist)/float64(serialDist))
	}
	return t, nil
}

// profileE2 runs the E2 Reduce and Distribute pair in a single run.
func profileE2(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	g, prims, err := e2Prims(d, n)
	if err != nil {
		return nil, err
	}
	elapsed, err := runBackToBack(m, g, prims)
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("reduce+spread, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}

// e3Times runs the given vector-matrix multiply variants, in order and
// one run each, on E3's seeded n x n matrix and vector.
func e3Times(m *hypercube.Machine, n int, variants ...apps.MatvecVariant) ([]costmodel.Time, error) {
	a := RandMat(500+int64(n), n, n)
	x := RandVec(600+int64(n), n)
	times := make([]costmodel.Time, len(variants))
	for i, variant := range variants {
		_, elapsed, _, err := apps.RunVecMat(m, a, x, variant)
		if err != nil {
			return nil, err
		}
		times[i] = elapsed
	}
	return times, nil
}

// E3Matvec compares the naive router-based vector-matrix multiply with
// the primitive composition and the fused kernel: the paper's
// "almost an order of magnitude" table.
func E3Matvec() (*Table, error) {
	const d = 10
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("y = x*A, p=%d: naive vs primitives (simulated us)", m.P()),
		Columns: []string{"n", "naive", "primitive", "fused", "naive/fused"},
		Notes:   "the paper reports almost an order of magnitude between the naive router implementation and the primitives",
	}
	for _, n := range []int{256, 512, 1024} {
		times, err := e3Times(m, n, apps.MatvecNaive, apps.MatvecPrimitive, apps.MatvecFused)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, float64(times[0]), float64(times[1]), float64(times[2]), float64(times[0])/float64(times[2]))
	}
	return t, nil
}

// profileE3 runs the three vector-matrix variants. The profile is of
// the last (naive) run, whose span tree shows the router storm the
// primitives avoid.
func profileE3(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	times, err := e3Times(m, n, apps.MatvecPrimitive, apps.MatvecFused, apps.MatvecNaive)
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("matvec primitive, fused, naive, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, times...), nil
}

// e4System is E4's seeded, well-conditioned n x n system.
func e4System(n int) (*serial.Mat, []float64) {
	return RandSystem(700+int64(n), n)
}

// E4Gauss compares naive and primitive-based Gaussian elimination.
func E4Gauss() (*Table, error) {
	const d = 8
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Gaussian elimination Ax=b, p=%d (simulated us)", m.P()),
		Columns: []string{"n", "naive", "primitives", "naive/prim", "residual"},
		Notes:   "identical pivoting and arithmetic; only the communication differs",
	}
	for _, n := range []int{32, 64, 128} {
		a, b := e4System(n)
		xp, tPrim, err := apps.SolveGauss(m, a, b, apps.DefaultGaussOpts())
		if err != nil {
			return nil, err
		}
		opts := apps.DefaultGaussOpts()
		opts.Naive = true
		_, tNaive, err := apps.SolveGauss(m, a, b, opts)
		if err != nil {
			return nil, err
		}
		res := serial.Norm2(serial.Residual(a, xp, b))
		t.AddRow(n, float64(tNaive), float64(tPrim), float64(tNaive)/float64(tPrim), fmt.Sprintf("%.1e", res))
	}
	return t, nil
}

// profileE4 runs primitive-based Gaussian elimination.
func profileE4(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, n := s.D, s.N
	a, b := e4System(n)
	_, elapsed, err := apps.SolveGauss(m, a, b, apps.DefaultGaussOpts())
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("gauss primitives, n=%d, p=%d", n, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}

// e5LP is E5's seeded dense LP with the given row count and 3/2 as
// many columns.
func e5LP(rows int) (c []float64, a *serial.Mat, b []float64, cols int) {
	cols = rows + rows/2
	c, a, b = RandLP(800+int64(rows), rows, cols)
	return c, a, b, cols
}

// E5Simplex compares naive and primitive-based simplex per-iteration
// cost on random dense LPs.
func E5Simplex() (*Table, error) {
	const d = 8
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("dense simplex, p=%d (simulated us)", m.P()),
		Columns: []string{"rows x cols", "iters", "prim/iter", "naive/iter", "naive/prim"},
		Notes:   "per-pivot cost; both kernels follow the identical pivot sequence",
	}
	for _, rows := range []int{16, 32, 64} {
		c, a, b, cols := e5LP(rows)
		resP, tPrim, err := apps.SolveSimplex(m, c, a, b, apps.DefaultSimplexOpts())
		if err != nil {
			return nil, err
		}
		opts := apps.DefaultSimplexOpts()
		opts.Naive = true
		resN, tNaive, err := apps.SolveSimplex(m, c, a, b, opts)
		if err != nil {
			return nil, err
		}
		if resP.Iterations != resN.Iterations {
			return nil, fmt.Errorf("bench: E5 pivot sequences diverged (%d vs %d iterations)", resP.Iterations, resN.Iterations)
		}
		iters := float64(resP.Iterations)
		if iters == 0 {
			iters = 1
		}
		t.AddRow(fmt.Sprintf("%dx%d", rows, cols), resP.Iterations,
			float64(tPrim)/iters, float64(tNaive)/iters, float64(tNaive)/float64(tPrim))
	}
	return t, nil
}

// profileE5 runs primitive-based simplex on an N x 3N/2 program.
func profileE5(m *hypercube.Machine, s RunSpec, opts ProfileOpts) (*ProfileResult, error) {
	d, rows := s.D, s.N
	c, a, b, cols := e5LP(rows)
	_, elapsed, err := apps.SolveSimplex(m, c, a, b, apps.DefaultSimplexOpts())
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("simplex primitives, %dx%d, p=%d", rows, cols, 1<<d)
	return finish(s, desc, m, opts, elapsed), nil
}
