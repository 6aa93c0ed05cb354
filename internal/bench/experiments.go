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
// All timings are simulated microseconds on the CM2-like parameter
// set; shapes, ratios and crossovers are the reproduction target.

// timedRun executes one SPMD body and returns the simulated time.
func timedRun(m *hypercube.Machine, g embed.Grid, body func(e *core.Env)) (costmodel.Time, error) {
	return m.Run(func(p *hypercube.Proc) { body(core.NewEnv(p, g)) })
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
		g := embed.SplitFor(d, n, n)
		dm := RandMat(100+int64(n), n, n)
		a, err := core.FromDense(g, dm, embed.Block, embed.Block)
		if err != nil {
			return nil, err
		}
		xv, err := core.VectorFromSlice(g, RandVec(200+int64(n), n), core.RowAligned, embed.Block, 0, false)
		if err != nil {
			return nil, err
		}
		row := n / 2
		tExtract, err := timedRun(m, g, func(e *core.Env) { e.ExtractRow(a, row, true) })
		if err != nil {
			return nil, err
		}
		tInsert, err := timedRun(m, g, func(e *core.Env) { e.InsertRow(a, xv, row) })
		if err != nil {
			return nil, err
		}
		tDist, err := timedRun(m, g, func(e *core.Env) { e.Distribute(xv) })
		if err != nil {
			return nil, err
		}
		tReduce, err := timedRun(m, g, func(e *core.Env) { e.ReduceRows(a, core.OpSum, true) })
		if err != nil {
			return nil, err
		}
		t.AddRow(n, float64(tExtract), float64(tInsert), float64(tDist), float64(tReduce))
	}
	return t, nil
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
		g := embed.SplitFor(d, n, n)
		dm := RandMat(300+int64(d), n, n)
		a, err := core.FromDense(g, dm, embed.Block, embed.Block)
		if err != nil {
			return nil, err
		}
		xv, err := core.VectorFromSlice(g, RandVec(400, n), core.RowAligned, embed.Block, 0, false)
		if err != nil {
			return nil, err
		}
		tReduce, err := timedRun(m, g, func(e *core.Env) { e.ReduceRows(a, core.OpSum, true) })
		if err != nil {
			return nil, err
		}
		tDist, err := timedRun(m, g, func(e *core.Env) { e.SpreadRows(xv, n, embed.Block) })
		if err != nil {
			return nil, err
		}
		p := float64(m.P())
		t.AddRow(m.P(), n*n/m.P(),
			float64(tReduce), p*float64(tReduce)/float64(serialReduce),
			float64(tDist), p*float64(tDist)/float64(serialDist))
	}
	return t, nil
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
		a := RandMat(500+int64(n), n, n)
		x := RandVec(600+int64(n), n)
		var times [3]costmodel.Time
		for vi, variant := range []apps.MatvecVariant{apps.MatvecNaive, apps.MatvecPrimitive, apps.MatvecFused} {
			_, elapsed, _, err := apps.RunVecMat(m, a, x, variant)
			if err != nil {
				return nil, err
			}
			times[vi] = elapsed
		}
		t.AddRow(n, float64(times[0]), float64(times[1]), float64(times[2]), float64(times[0])/float64(times[2]))
	}
	return t, nil
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
		a, b := RandSystem(700+int64(n), n)
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
	for _, shape := range [][2]int{{16, 24}, {32, 48}, {64, 96}} {
		rows, cols := shape[0], shape[1]
		c, a, b := RandLP(800+int64(rows), rows, cols)
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
