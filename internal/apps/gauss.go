package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// The Gaussian-elimination routine of the paper, on the augmented
// system [A | b]: per elimination step, a Reduce(maxabsloc) pivot
// search down column k, a row swap composed of Extracts and Inserts,
// an Extract + Distribute of the pivot row and of the multiplier
// column, and a rank-1 elementwise update — all four primitives, every
// step. Back substitution runs as n column updates using the same
// Extract/Distribute machinery.

// GaussOpts configures a distributed Gaussian elimination solve.
type GaussOpts struct {
	// RKind and CKind choose the row/column embeddings. Cyclic row
	// embedding keeps the shrinking active submatrix balanced over the
	// grid (ablation A3); Block is the simple consecutive embedding.
	RKind, CKind embed.MapKind
	// Naive routes all communication through the general router,
	// element by element, instead of using the primitives.
	Naive bool
}

// DefaultGaussOpts returns the configuration used by the paper-shaped
// experiments: cyclic rows and columns, primitives on.
func DefaultGaussOpts() GaussOpts {
	return GaussOpts{RKind: embed.Cyclic, CKind: embed.Cyclic}
}

// pivotEps matches the serial elimination's singularity threshold.
const pivotEps = 0.0

// pivotRow is the pivot half of one forward-elimination step: a
// Reduce(maxabsloc) search down column k over rows [k, n), then a row
// swap (Extract x2, Insert x2) that brings the pivot to row k. It
// returns the pivot's row before the swap, or an error (identical on
// every processor) if the column is numerically singular.
func pivotRow(e *core.Env, w *core.Matrix, k int) (int, error) {
	mag, piv := e.ReduceColLoc(w, k, k, w.Rows, core.LocMaxAbs)
	if piv < 0 || mag <= pivotEps {
		return -1, fmt.Errorf("apps: singular matrix at step %d", k)
	}
	if piv != k {
		e.SwapRows(w, k, piv)
	}
	return piv, nil
}

// forwardEliminate runs forward elimination with partial pivoting on
// the n = w.Rows leading columns of w, updating columns [k, cols) at
// step k. Each step, in a step scope of its own, is a pivot (pivotRow)
// and an elimination: the pivot row and column k, both replicated
// (Extract + Distribute fused), the column scaled to the multipliers
// (zero at and above the pivot row), and the rank-1 elementwise update
// of rows (k, n); column k is included so the eliminated entries become
// exact zeros. It returns the product of the pivots, its sign flipped
// at every row swap (the determinant of the leading n x n block), or an
// error, identical on every processor, if that block is numerically
// singular.
func forwardEliminate(e *core.Env, w *core.Matrix, cols int) (float64, error) {
	det := 1.0
	for k := 0; k < w.Rows; k++ {
		step := e.Mark()
		e.BeginSpan("pivot")
		piv, err := pivotRow(e, w, k)
		e.EndSpan()
		if err != nil {
			return 0, err
		}
		if piv != k {
			det = -det
		}
		e.BeginSpan("eliminate")
		prow := e.ExtractRow(w, k, true)
		pivot := e.VecElemAt(prow, k)
		mcol := e.ExtractCol(w, k, true)
		inv := 1 / pivot
		e.MapVec(mcol, func(gi int, v float64) float64 {
			if gi <= k {
				return 0 // rows at or above the pivot are untouched
			}
			return v * inv
		}, 1)
		e.UpdateOuterSub(w, mcol, prow, k+1, w.Rows, k, cols)
		e.EndSpan()
		e.Release(step)
		det *= pivot
	}
	return det, nil
}

// GaussKernel runs forward elimination with partial pivoting and back
// substitution on the distributed augmented matrix w (n rows, n+1
// columns) and returns the solution through the provided linear-layout
// vector xOut (length n). It reports an error (identically on
// every processor) if the matrix is numerically singular.
func GaussKernel(e *core.Env, w *core.Matrix, xOut *core.Vector) error {
	n := w.Rows
	if w.Cols != n+1 {
		panic(fmt.Sprintf("apps: GaussKernel needs an n x n+1 augmented matrix, got %dx%d", w.Rows, w.Cols))
	}
	e.BeginSpan("gauss")
	defer e.EndSpan()
	if _, err := forwardEliminate(e, w, n+1); err != nil {
		return err
	}

	// Back substitution: x_k = w[k][n] / w[k][k], then eliminate
	// column k from the right-hand sides of rows above: one Extract +
	// Distribute of column k and a single-column elementwise update.
	e.BeginSpan("back-substitute")
	defer e.EndSpan()
	ones := e.TempVector(n+1, core.RowAligned, w.CMap.Kind, 0, true)
	e.MapVec(ones, func(int, float64) float64 { return 1 }, 0)
	for k := n - 1; k >= 0; k-- {
		xk := e.ElemAt(w, k, n) / e.ElemAt(w, k, k)
		e.SetVecElem(xOut, k, xk)
		if k == 0 {
			break
		}
		step := e.Mark()
		e.UpdateOuter(w, e.ExtractCol(w, k, true), ones, 0, k, n, n+1,
			func(aij, ci, _ float64) float64 { return aij - ci*xk }, 2)
		e.Release(step)
	}
	return nil
}

// SolveGauss stages the augmented system [A | b] on machine m from A
// and b and solves it with GaussKernel (or the naive router-based
// kernel), returning the solution and the simulated elapsed time.
func SolveGauss(m *hypercube.Machine, a *serial.Mat, b []float64, opts GaussOpts) ([]float64, costmodel.Time, error) {
	if a.R != a.C {
		return nil, 0, fmt.Errorf("apps: SolveGauss needs a square matrix, got %dx%d", a.R, a.C)
	}
	if len(b) != a.R {
		return nil, 0, fmt.Errorf("apps: rhs length %d, want %d", len(b), a.R)
	}
	n := a.R
	g := embed.SplitFor(m.Dim(), n, n+1)
	kernel := GaussKernel
	if opts.Naive {
		kernel = GaussKernelNaive
	}
	x := make([]float64, n)
	elapsed, err := m.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		w := e.LoadDense(opts.RKind, opts.CKind, a, &serial.Mat{R: n, C: 1, A: b})
		xOut := e.TempVector(n, core.Linear, embed.Block, 0, false)
		if kerr := kernel(e, w, xOut); kerr != nil {
			panic(kerr)
		}
		e.StoreSlice(x, xOut)
	})
	if err != nil {
		return nil, 0, err
	}
	return x, elapsed, nil
}

// Determinant computes det(A) on machine mach by distributed Gaussian
// elimination with partial pivoting: every processor tracks the
// product of the broadcast pivots and the swap parity, so the result
// needs no extra communication beyond the elimination itself. A
// singular A has determinant 0.
func Determinant(mach *hypercube.Machine, a *serial.Mat, opts GaussOpts) (float64, costmodel.Time, error) {
	if a.R != a.C {
		return 0, 0, fmt.Errorf("apps: Determinant needs a square matrix, got %dx%d", a.R, a.C)
	}
	n := a.R
	g := embed.SplitFor(mach.Dim(), n, n)
	var det float64
	elapsed, err := mach.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		w := e.LoadDense(opts.RKind, opts.CKind, a)
		d, _ := forwardEliminate(e, w, n) // 0 if singular
		if p.ID() == 0 {
			det = d
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return det, elapsed, nil
}
