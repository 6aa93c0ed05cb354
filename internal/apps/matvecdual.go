package apps

import (
	"vmprim/internal/core"
)

// MatVecKernel computes y = A*x (the dual orientation to VecMatKernel)
// inside an SPMD body: x must be row-aligned (length A.Cols, i.e.
// aligned with the matrix columns); the result is col-aligned (length
// A.Rows), replicated across grid columns. The composition mirrors the
// paper's vector-matrix multiply with the axes exchanged: Distribute x
// across the grid rows, multiply elementwise, Reduce along the
// columns.
func MatVecKernel(e *core.Env, a *core.Matrix, x *core.Vector) *core.Vector {
	if x.Layout != core.RowAligned || x.N != a.Cols || x.Map != a.CMap {
		panic("apps: MatVecKernel needs a row-aligned x matching A's columns")
	}
	e.BeginSpan("matvec(dual)")
	defer e.EndSpan()
	pid := e.P.ID()
	xp := x.L(pid)
	if !x.Replicated {
		xp = e.DistributePiece(x)
	}
	blk := a.L(pid)
	b := a.CMap.B
	piece := e.P.GetBuf(a.RMap.B)
	myCol := e.GridCol()
	count := 0
	for lr := 0; lr < a.RMap.B; lr++ {
		row := blk[lr*b : (lr+1)*b]
		s := 0.0
		for lc, aij := range row {
			if a.CMap.GlobalOf(myCol, lc) < 0 {
				continue
			}
			s += aij * xp[lc]
			count += 2
		}
		piece[lr] = s
	}
	e.P.Compute(count)
	if !x.Replicated {
		e.P.Recycle(xp)
	}
	out := e.TempVector(a.Rows, core.ColAligned, a.RMap.Kind, 0, true)
	sum := e.AllReduceColsPiece(piece, core.OpSum)
	copy(out.L(pid), sum)
	e.P.Recycle(sum)
	e.P.Recycle(piece)
	return out
}
