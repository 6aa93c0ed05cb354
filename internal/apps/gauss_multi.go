package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// Multiple-right-hand-side Gaussian elimination: the paper's routine
// on the augmented system [A | B] with B an n x nrhs block. Forward
// elimination is the same four-primitive step as GaussKernel; back
// substitution turns into Gauss-Jordan-style column updates that clear
// each pivot column from the rows above while scaling the solution
// rows — still Extract, Distribute and elementwise updates only.

// EliminateMulti runs elimination with partial pivoting on the
// distributed augmented matrix w (n rows, n + nrhs columns). On return
// the trailing nrhs columns of w hold the solutions X of A X = B. The
// error (singularity) is identical on every processor.
func EliminateMulti(e *core.Env, w *core.Matrix, nrhs int) error {
	n := w.Rows
	if nrhs < 1 || w.Cols != n+nrhs {
		panic(fmt.Sprintf("apps: EliminateMulti needs n x n+nrhs, got %dx%d with nrhs=%d", w.Rows, w.Cols, nrhs))
	}
	cols := n + nrhs
	// Forward elimination (as in GaussKernel, over wider rows).
	if _, err := forwardEliminate(e, w, cols); err != nil {
		return err
	}
	// Back substitution: normalize row k's solution block, extract it,
	// and clear column k from the rows above with one restricted
	// rank-1 update per step.
	for k := n - 1; k >= 0; k-- {
		pivot := e.ElemAt(w, k, k)
		inv := 1 / pivot
		e.MapRange(w, k, k+1, n, cols, func(_, _ int, v float64) float64 { return v * inv }, 1)
		if k == 0 {
			break
		}
		step := e.Mark()
		prow := e.ExtractRow(w, k, true)
		e.UpdateOuterSub(w, e.ExtractCol(w, k, true), prow, 0, k, n, cols)
		e.Release(step)
	}
	return nil
}

// SolveGaussMany solves A X = B for an n x nrhs block B, staging
// [A | B] from A and B and landing X from the trailing columns, and
// returns X and the simulated elapsed time.
func SolveGaussMany(m *hypercube.Machine, a, b *serial.Mat, opts GaussOpts) (*serial.Mat, costmodel.Time, error) {
	if a.R != a.C {
		return nil, 0, fmt.Errorf("apps: SolveGaussMany needs a square matrix, got %dx%d", a.R, a.C)
	}
	if b.R != a.R || b.C < 1 {
		return nil, 0, fmt.Errorf("apps: rhs block %dx%d incompatible with %dx%d", b.R, b.C, a.R, a.C)
	}
	n, nrhs := a.R, b.C
	g := embed.SplitFor(m.Dim(), n, n+nrhs)
	x := serial.NewMat(n, nrhs)
	elapsed, err := m.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		w := e.LoadDense(opts.RKind, opts.CKind, a, b)
		if kerr := EliminateMulti(e, w, nrhs); kerr != nil {
			panic(kerr)
		}
		e.StoreDense(x, w, n)
	})
	if err != nil {
		return nil, 0, err
	}
	return x, elapsed, nil
}

// Inverse computes A^-1 by solving A X = I with the multi-right-hand-
// side elimination, returning the inverse and the simulated time.
func Inverse(m *hypercube.Machine, a *serial.Mat, opts GaussOpts) (*serial.Mat, costmodel.Time, error) {
	if a.R != a.C {
		return nil, 0, fmt.Errorf("apps: Inverse needs a square matrix, got %dx%d", a.R, a.C)
	}
	eye := serial.NewMat(a.R, a.R)
	for i := 0; i < a.R; i++ {
		eye.Set(i, i, 1)
	}
	return SolveGaussMany(m, a, eye, opts)
}
