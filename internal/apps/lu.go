package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// LU factorization with partial pivoting as a reusable object: the
// elimination (the expensive O(n^3/p) part) runs once, the factors
// stay distributed on the machine, and each subsequent right-hand side
// costs only the O(n^2/p + n lg p) triangular solves. The factor phase
// is the paper's Gaussian elimination with the multipliers written
// back into the eliminated lower triangle; the solve phases are column
// sweeps of Extract + Distribute + elementwise vector updates.

// LU holds a distributed factorization P A = L U.
type LU struct {
	mach *hypercube.Machine
	g    embed.Grid
	// w holds U on and above the diagonal and the L multipliers (unit
	// diagonal implied) strictly below it.
	w *core.Matrix
	// perm[k] is the original row index now in pivot position k.
	perm []int
	// FactorTime is the simulated time of the factorization run.
	FactorTime costmodel.Time
}

// LUFactor factors a on machine mach. The returned object is bound to
// mach and may solve any number of right-hand sides.
func LUFactor(mach *hypercube.Machine, a *serial.Mat, opts GaussOpts) (*LU, error) {
	if a.R != a.C {
		return nil, fmt.Errorf("apps: LUFactor needs a square matrix, got %dx%d", a.R, a.C)
	}
	n := a.R
	g := embed.SplitFor(mach.Dim(), n, n)
	w, err := core.FromDense(g, a, opts.RKind, opts.CKind)
	if err != nil {
		return nil, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	elapsed, err := mach.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		e.BeginSpan("lu-factor")
		defer e.EndSpan()
		for k := 0; k < n; k++ {
			step := e.Mark()
			e.BeginSpan("pivot")
			piv, err := pivotRow(e, w, k)
			if err != nil {
				panic(err)
			}
			if piv != k && p.ID() == 0 {
				perm[k], perm[piv] = perm[piv], perm[k]
			}
			e.EndSpan()
			e.BeginSpan("eliminate")
			prow := e.ExtractRow(w, k, true)
			pivot := e.VecElemAt(prow, k)
			inv := 1 / pivot
			colK := e.ExtractCol(w, k, true)
			// Multipliers: zero at and above the pivot row, a_ik/pivot
			// below. These drive the trailing update and are also the
			// L factor entries.
			mult := e.CopyVec(colK)
			e.MapVec(mult, func(gi int, v float64) float64 {
				if gi <= k {
					return 0
				}
				return v * inv
			}, 1)
			// Trailing update: columns right of k only, so column k
			// keeps its U entries at rows <= k.
			e.UpdateOuterSub(w, mult, prow, k+1, n, k+1, n)
			// Store L: column k below the diagonal becomes the
			// multipliers; at and above it keeps the extracted values.
			lcol := e.CopyVec(colK)
			e.ZipVecWith(lcol, mult, func(gi int, orig, mi float64) float64 {
				if gi <= k {
					return orig
				}
				return mi
			}, 1)
			e.InsertCol(w, lcol, k)
			e.EndSpan()
			e.Release(step)
		}
	})
	if err != nil {
		return nil, err
	}
	return &LU{mach: mach, g: g, w: w, perm: perm, FactorTime: elapsed}, nil
}

// N returns the system size.
func (lu *LU) N() int { return lu.w.Rows }

// Perm returns a copy of the row permutation (perm[k] = original index
// of the row in pivot position k).
func (lu *LU) Perm() []int {
	out := make([]int, len(lu.perm))
	copy(out, lu.perm)
	return out
}

// Factors assembles the distributed factor matrix (U on and above the
// diagonal, L multipliers below) on the host, for inspection.
func (lu *LU) Factors() *serial.Mat { return lu.w.ToDense() }

// Solve solves A x = b using the stored factors: apply the row
// permutation, forward-substitute with L (unit diagonal), then
// back-substitute with U. Each phase runs n column sweeps of Extract +
// Distribute + an elementwise vector update, so a solve costs
// O(n^2/p + n lg p) simulated time — the point of factoring once. It
// returns x and the simulated time of the solve run.
func (lu *LU) Solve(b []float64) ([]float64, costmodel.Time, error) {
	n := lu.N()
	if len(b) != n {
		return nil, 0, fmt.Errorf("apps: LU.Solve rhs length %d, want %d", len(b), n)
	}
	// The permutation lives host-side; apply it to the right-hand side
	// before staging it.
	pb := make([]float64, n)
	for k := 0; k < n; k++ {
		pb[k] = b[lu.perm[k]]
	}
	w := lu.w
	x := make([]float64, n)
	elapsed, err := lu.mach.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, lu.g)
		e.BeginSpan("lu-solve")
		defer e.EndSpan()
		y := e.LoadSlice(pb, core.ColAligned, w.RMap.Kind, 0, true)
		xOut := e.TempVector(n, core.Linear, embed.Block, 0, false)
		// Forward substitution with unit-diagonal L:
		// y_i -= L[i][k] * y_k for i > k, column k of L extracted in
		// each step's scope.
		e.BeginSpan("forward-sub")
		for k := 0; k < n-1; k++ {
			step := e.Mark()
			yk := e.VecElemAt(y, k)
			e.ZipVecWith(y, e.ExtractCol(w, k, true), func(gi int, yi, lik float64) float64 {
				if gi <= k {
					return yi
				}
				return yi - lik*yk
			}, 2)
			e.Release(step)
		}
		e.EndSpan()
		e.BeginSpan("back-substitute")
		defer e.EndSpan()
		// Back substitution with U: x_k = y_k / U[k][k], then
		// y_i -= U[i][k] * x_k for i < k. The owner of U[k][k] also
		// holds the replicated y, so one scalar broadcast carries the
		// finished x_k instead of separate u and y broadcasts.
		for k := n - 1; k >= 0; k-- {
			owner := w.OwnerOf(k, k)
			var quot float64
			if e.P.ID() == owner {
				ukk := w.L(owner)[w.RMap.LocalOf(k)*w.CMap.B+w.CMap.LocalOf(k)]
				quot = y.L(owner)[y.Map.LocalOf(k)] / ukk
				e.P.Compute(1)
			}
			xk := e.BcastWord(owner, quot)
			e.SetVecElem(xOut, k, xk)
			if k == 0 {
				break
			}
			step := e.Mark()
			e.ZipVecWith(y, e.ExtractCol(w, k, true), func(gi int, yi, uik float64) float64 {
				if gi >= k {
					return yi
				}
				return yi - uik*xk
			}, 2)
			e.Release(step)
		}
		e.StoreSlice(x, xOut)
	})
	if err != nil {
		return nil, 0, err
	}
	return x, elapsed, nil
}
