package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// The simplex algorithm of the paper on the distributed dense tableau:
// every iteration is built from the four primitives — Reduce(minloc)
// over the objective row picks the entering variable, Extract +
// ZipLoc(minloc) performs the ratio test, Extract/scale/Insert
// normalizes the pivot row, and Distribute + elementwise performs the
// pivot update. Pivot rules (and the arithmetic per element) are
// identical to internal/serial's tableau simplex, so the two follow
// the same pivot sequence.

// simplexEps is the shared optimality/validity tolerance; it matches
// the serial implementation's pivotEps.
const simplexEps = 1e-9

// SimplexOpts configures a distributed simplex solve.
type SimplexOpts struct {
	// RKind and CKind choose the tableau embeddings.
	RKind, CKind embed.MapKind
	// MaxIter caps the pivot count.
	MaxIter int
	// Naive routes all communication through the general router.
	Naive bool
	// Bland selects Bland's anti-cycling pivot rule instead of the
	// Dantzig rule (not available for the naive kernel).
	Bland bool
}

// DefaultSimplexOpts returns cyclic embeddings and a generous pivot
// cap.
func DefaultSimplexOpts() SimplexOpts {
	return SimplexOpts{RKind: embed.Cyclic, CKind: embed.Cyclic, MaxIter: 10000}
}

// SimplexKernel runs the tableau simplex (Dantzig rule) on the
// distributed tableau t (m+1 rows, n+m+1 columns, as built by
// serial.NewTableau) with nVars original variables. It returns the
// final status, objective value, iteration count and basis (identical
// on every processor): the column index of row i's basic variable as
// basis[i], held in the processor's scratch (hypercube.Proc.Scratch)
// until the end of the Run or step scope that called the kernel.
func SimplexKernel(e *core.Env, t *core.Matrix, nVars, maxIter int) (serial.LPStatus, float64, int, []float64) {
	return simplexLoop(e, t, nVars, maxIter, false)
}

// SimplexKernelBland is SimplexKernel under Bland's anti-cycling rule
// (smallest-index entering column; minimum ratio with ties broken by
// smallest basis index), matching serial.SolveLPBland pivot for pivot.
func SimplexKernelBland(e *core.Env, t *core.Matrix, nVars, maxIter int) (serial.LPStatus, float64, int, []float64) {
	return simplexLoop(e, t, nVars, maxIter, true)
}

func simplexLoop(e *core.Env, t *core.Matrix, nVars, maxIter int, bland bool) (serial.LPStatus, float64, int, []float64) {
	e.BeginSpan("simplex")
	defer e.EndSpan()
	m := t.Rows - 1
	rhs := t.Cols - 1
	basis := newBasis(e, m, nVars)
	iters := 0
	for {
		step := e.Mark()
		// Entering variable: Dantzig takes the most negative reduced
		// cost; Bland the smallest improving index.
		e.BeginSpan("pricing")
		var jc int
		if bland {
			obj := e.ExtractRow(t, m, true) // the objective row
			_, jc = e.ZipLocVec(obj, obj, 0, rhs, func(g int, v, _ float64) (float64, bool) {
				if v < -simplexEps {
					return float64(g), true
				}
				return 0, false
			}, core.LocMin)
		} else {
			var val float64
			val, jc = e.ReduceRowLoc(t, m, 0, rhs, core.LocMin)
			if jc >= 0 && val >= -simplexEps {
				jc = -1
			}
		}
		e.EndSpan()
		if jc < 0 {
			return serial.Optimal, e.ElemAt(t, m, rhs), iters, basis
		}
		if iters >= maxIter {
			return serial.IterLimit, e.ElemAt(t, m, rhs), iters, basis
		}
		// Ratio test: Extract the entering column and the rhs column,
		// ZipLoc(minloc) over the guarded ratios.
		e.BeginSpan("ratio-test")
		col := e.ExtractCol(t, jc, true)
		rhsv := e.ExtractCol(t, rhs, true)
		ratio := func(_ int, aij, bi float64) (float64, bool) {
			if aij <= simplexEps {
				return 0, false
			}
			return bi / aij, true
		}
		minRatio, ir := e.ZipLocVec(col, rhsv, 0, m, ratio, core.LocMin)
		if ir >= 0 && bland {
			// Second stage: smallest basis index within the epsilon
			// window of the minimum ratio.
			_, ir = e.ZipLocVec(col, rhsv, 0, m, func(g int, aij, bi float64) (float64, bool) {
				r, ok := ratio(g, aij, bi)
				if !ok || r > minRatio+simplexEps {
					return 0, false
				}
				return basis[g], true
			}, core.LocMin)
		}
		e.EndSpan()
		if ir < 0 {
			return serial.Unbounded, e.ElemAt(t, m, rhs), iters, basis
		}
		// Pivot: normalize the pivot row (Extract, scale, Insert), zero
		// the multiplier at the pivot row, rank-1 update everywhere
		// else. Arithmetic matches serial.Pivot operation for
		// operation.
		e.BeginSpan("pivot")
		pivot := e.VecElemAt(col, ir)
		inv := 1 / pivot
		prow := e.ExtractRow(t, ir, true)
		e.MapVec(prow, func(_ int, v float64) float64 { return v * inv }, 1)
		e.InsertRow(t, prow, ir)
		mult := e.CopyVec(col)
		e.MapVec(mult, func(gi int, v float64) float64 {
			if gi == ir {
				return 0
			}
			return v
		}, 1)
		e.UpdateOuterSub(t, mult, prow, 0, m+1, 0, rhs+1)
		e.EndSpan()
		e.Release(step)
		basis[ir] = float64(jc)
		iters++
	}
}

// newBasis returns the initial basis of an m-row tableau over nVars
// original variables, the slacks, taken from the processor's scratch:
// a column index per row, exact in a float64.
func newBasis(e *core.Env, m, nVars int) []float64 {
	basis := e.P.Scratch(m)
	for i := range basis {
		basis[i] = float64(nVars + i)
	}
	return basis
}

// SolveSimplex stages the tableau for maximize c^T x subject to A x <=
// b, x >= 0 (b >= 0) on machine m and solves it with the
// primitive-based (or naive) kernel, returning the result and the
// simulated elapsed time.
func SolveSimplex(mach *hypercube.Machine, c []float64, a *serial.Mat, b []float64, opts SimplexOpts) (serial.LPResult, costmodel.Time, error) {
	tab, err := serial.NewTableau(c, a, b)
	if err != nil {
		return serial.LPResult{}, 0, err
	}
	g := embed.SplitFor(mach.Dim(), tab.R, tab.C)
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10000
	}
	if opts.Bland && opts.Naive {
		return serial.LPResult{}, 0, fmt.Errorf("apps: Bland's rule is not implemented for the naive kernel")
	}
	kernel := SimplexKernel
	switch {
	case opts.Naive:
		kernel = SimplexKernelNaive
	case opts.Bland:
		kernel = SimplexKernelBland
	}
	res := serial.LPResult{X: make([]float64, len(c))}
	elapsed, err := mach.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		dt := e.LoadDense(opts.RKind, opts.CKind, tab)
		status, z, iters, bas := kernel(e, dt, len(c), opts.MaxIter)
		// Pull the basic variables' values out of the rhs column.
		xOut := e.TempVector(len(c), core.Linear, embed.Block, 0, false)
		for i, bj := range bas {
			if j := int(bj); j < len(c) {
				v := e.ElemAt(dt, i, dt.Cols-1)
				e.SetVecElem(xOut, j, v)
			}
		}
		e.StoreSlice(res.X, xOut)
		if p.ID() == 0 {
			res.Status = status
			res.Z = z
			res.Iterations = iters
		}
	})
	if err != nil {
		return serial.LPResult{}, 0, err
	}
	return res, elapsed, nil
}
