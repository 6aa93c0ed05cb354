package apps

import (
	"fmt"
	"math"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// Conjugate gradient with a diagonal (Jacobi) preconditioner for
// symmetric positive-definite systems, composed entirely from the
// primitive set: the matrix-vector product is Distribute + local
// multiply + Reduce, inner products are local folds + one-word
// all-reduces, vector updates are elementwise, and the one embedding
// change per iteration (the product comes back col-aligned, the next
// iterate needs it row-aligned) is a Realign. This is the iterative-
// solver companion to the paper's direct elimination routine, in the
// style of the contemporaneous TMC finite-element work (Johnsson &
// Mathur 1989).

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	// X is the solution iterate.
	X []float64
	// Iterations is the number of CG steps taken.
	Iterations int
	// Residual is the final 2-norm of b - A x.
	Residual float64
	// Converged reports whether Residual reached the tolerance.
	Converged bool
}

// CGOpts configures a conjugate-gradient solve.
type CGOpts struct {
	// Tol is the convergence threshold on ||r||_2 (default 1e-10).
	Tol float64
	// MaxIter caps the iterations (default 10n).
	MaxIter int
	// Kind selects the element maps (default Block).
	Kind embed.MapKind
}

// SolveCG solves the SPD system A x = b by preconditioned conjugate
// gradient on machine m, returning the result and simulated elapsed
// time.
func SolveCG(m *hypercube.Machine, a *serial.Mat, b []float64, opts CGOpts) (CGResult, costmodel.Time, error) {
	if a.R != a.C {
		return CGResult{}, 0, fmt.Errorf("apps: SolveCG needs a square matrix, got %dx%d", a.R, a.C)
	}
	if len(b) != a.R {
		return CGResult{}, 0, fmt.Errorf("apps: rhs length %d, want %d", len(b), a.R)
	}
	n := a.R
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10 * n
	}
	g := embed.SplitFor(m.Dim(), n, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		d := a.At(i, i)
		if d == 0 {
			return CGResult{}, 0, fmt.Errorf("apps: zero diagonal at %d (Jacobi preconditioner)", i)
		}
		diag[i] = 1 / d
	}

	res := CGResult{X: make([]float64, n)}
	elapsed, err := m.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		e.BeginSpan("cg")
		defer e.EndSpan()
		// All iterate vectors live row-aligned and replicated (aligned
		// with the matrix columns, as the multiply consumes them).
		da := e.LoadDense(opts.Kind, opts.Kind, a)
		rb := e.LoadSlice(b, core.RowAligned, opts.Kind, 0, true)
		dinv := e.LoadSlice(diag, core.RowAligned, opts.Kind, 0, true)
		x := e.TempVector(n, core.RowAligned, opts.Kind, 0, true) // x0 = 0
		r := e.CopyVec(rb)                                        // r0 = b
		z := e.CopyVec(r)
		e.ZipVec(z, dinv, func(ri, di float64) float64 { return ri * di }, 1)
		pv := e.CopyVec(z)
		rz := e.DotVec(r, z)
		iters := 0
		resid := e.Norm2Vec(r)
		for iters < opts.MaxIter && resid > opts.Tol {
			// The iteration's q and z live in its step scope; x, r and
			// pv are updated in place.
			step := e.Mark()
			// q = A p (col-aligned), realigned to the iterate layout.
			e.BeginSpan("matvec")
			qc := MatVecKernel(e, da, pv)
			q := e.Realign(qc, core.RowAligned, opts.Kind, 0, true)
			e.EndSpan()
			e.BeginSpan("update")
			alpha := rz / e.DotVec(pv, q)
			e.AddScaledVec(x, alpha, pv)
			e.AddScaledVec(r, -alpha, q)
			e.EndSpan()
			e.BeginSpan("precond")
			z := e.CopyVec(r)
			e.ZipVec(z, dinv, func(ri, di float64) float64 { return ri * di }, 1)
			e.EndSpan()
			e.BeginSpan("update")
			rzNew := e.DotVec(r, z)
			beta := rzNew / rz
			rz = rzNew
			e.ScaleAddVec(pv, beta, z)
			resid = e.Norm2Vec(r)
			e.EndSpan()
			e.Release(step)
			iters++
		}
		e.StoreSlice(res.X, x)
		if p.ID() == 0 {
			res.Iterations = iters
			res.Residual = resid
			res.Converged = resid <= opts.Tol
		}
	})
	if err != nil {
		return CGResult{}, 0, err
	}
	// Report the true residual of the returned iterate.
	res.Residual = serial.Norm2(serial.Residual(a, res.X, b))
	res.Converged = res.Converged && !math.IsNaN(res.Residual)
	return res, elapsed, nil
}
