package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// Dense matrix-matrix multiplication composed from the primitives, in
// the outer-product formulation: C = sum_k A[:,k] (x) B[k,:]. Each of
// the K inner-dimension steps is one ExtractCol + Distribute, one
// ExtractRow + Distribute, and one rank-1 elementwise accumulate —
// i.e. the Gaussian-elimination update step run K times without
// pivoting. This is the natural "level-3" extension of the paper's
// primitive set (the TMC BLAS work of the same period built matrix
// multiply from exactly these pieces).

// MatMulKernel computes C += A*B inside an SPMD body. A is R x K,
// B is K x C, and c must be an R x C matrix whose row map equals A's
// and whose column map equals B's.
func MatMulKernel(e *core.Env, c, a, b *core.Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("apps: MatMulKernel shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if c.RMap != a.RMap || c.CMap != b.CMap {
		panic("apps: MatMulKernel output embedding must match A's rows and B's columns")
	}
	for k := 0; k < a.Cols; k++ {
		step := e.Mark()
		ak := e.ExtractCol(a, k, true) // Extract + Distribute
		bk := e.ExtractRow(b, k, true) // Extract + Distribute
		e.UpdateOuterAddMul(c, ak, bk, 0, c.Rows, 0, c.Cols)
		e.Release(step)
	}
}

// MatMul multiplies two dense matrices on machine m via the
// distributed outer-product algorithm and returns the product and the
// simulated elapsed time.
func MatMul(m *hypercube.Machine, a, b *serial.Mat, kind embed.MapKind) (*serial.Mat, costmodel.Time, error) {
	if a.C != b.R {
		return nil, 0, fmt.Errorf("apps: MatMul shapes %dx%d * %dx%d", a.R, a.C, b.R, b.C)
	}
	g := embed.SplitFor(m.Dim(), a.R, b.C)
	c := serial.NewMat(a.R, b.C)
	// The kernel needs aligned embeddings: A's columns and B's rows
	// are the contracted axis and may differ in map; C aligns with A's
	// rows and B's columns, which making all three with the same kind
	// on the same grid guarantees.
	elapsed, err := m.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		dc := e.TempMatrix(a.R, b.C, kind, kind)
		MatMulKernel(e, dc, e.LoadDense(kind, kind, a), e.LoadDense(kind, kind, b))
		e.StoreDense(c, dc, 0)
	})
	if err != nil {
		return nil, 0, err
	}
	return c, elapsed, nil
}
