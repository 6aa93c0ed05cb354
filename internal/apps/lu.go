package apps

import (
	"fmt"

	"vmprim/internal/collective"
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
		prow := e.TempVector(n, core.RowAligned, w.CMap.Kind, 0, true)
		colK := e.TempVector(n, core.ColAligned, w.RMap.Kind, 0, true)
		mult := e.TempVector(n, core.ColAligned, w.RMap.Kind, 0, true)
		lcol := e.TempVector(n, core.ColAligned, w.RMap.Kind, 0, true)
		for k := 0; k < n; k++ {
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
			e.ExtractRowInto(prow, w, k, true)
			pivot := e.VecElemAt(prow, k)
			inv := 1 / pivot
			e.ExtractColInto(colK, w, k, true)
			// Multipliers: zero at and above the pivot row, a_ik/pivot
			// below. These drive the trailing update and are also the
			// L factor entries.
			e.CopyVecInto(mult, colK)
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
			e.CopyVecInto(lcol, colK)
			e.ZipVecWith(lcol, mult, func(gi int, orig, mi float64) float64 {
				if gi <= k {
					return orig
				}
				return mi
			}, 1)
			e.InsertCol(w, lcol, k)
			e.EndSpan()
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
		// y_i -= L[i][k] * y_k for i > k.
		// col holds column k of L in the forward sweep, of U in the
		// backward one.
		col := e.TempVector(n, core.ColAligned, w.RMap.Kind, 0, true)
		e.BeginSpan("forward-sub")
		for k := 0; k < n-1; k++ {
			yk := e.VecElemAt(y, k)
			e.ExtractColInto(col, w, k, true)
			e.ZipVecWith(y, col, func(gi int, yi, lik float64) float64 {
				if gi <= k {
					return yi
				}
				return yi - lik*yk
			}, 2)
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
			var quot []float64
			if e.P.ID() == owner {
				ukk := w.L(owner)[w.RMap.LocalOf(k)*w.CMap.B+w.CMap.LocalOf(k)]
				yk := y.L(owner)[y.Map.LocalOf(k)]
				quot = []float64{yk / ukk}
				e.P.Compute(1)
			}
			xk := collective.Bcast(e.P, e.P.FullMask(), e.NextTag(), owner, quot)[0]
			e.SetVecElem(xOut, k, xk)
			if k == 0 {
				break
			}
			e.ExtractColInto(col, w, k, true)
			e.ZipVecWith(y, col, func(gi int, yi, uik float64) float64 {
				if gi >= k {
					return yi
				}
				return yi - uik*xk
			}, 2)
		}
		e.StoreSlice(x, xOut)
	})
	if err != nil {
		return nil, 0, err
	}
	return x, elapsed, nil
}
