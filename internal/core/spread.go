package core

import (
	"vmprim/internal/collective"
	"vmprim/internal/embed"
)

// This file implements the third primitive, Distribute: replicating an
// aligned vector across the orthogonal grid axis, and its matrix-
// shaped form that materializes v as every row (column) of a matrix.

// Distribute replicates an aligned vector across the orthogonal grid
// dimensions: a row-aligned vector becomes present on every grid row,
// a col-aligned one on every grid column. It returns a new replicated
// vector (the input is unchanged); distributing an already-replicated
// vector just copies it locally. The cost is one binomial broadcast of
// the m^(1/2)/p^(1/2)-sized piece over the orthogonal cube dimensions
// — or, for long pieces, the bandwidth-optimal scatter/all-gather.
func (e *Env) Distribute(v *Vector) *Vector {
	piece := e.DistributePiece(v)
	out := e.TempVector(v.N, v.Layout, v.Map.Kind, v.Home, true)
	copy(out.L(e.P.ID()), piece)
	e.P.Recycle(piece)
	return out
}

// DistributePiece is Distribute without the result vector: it returns
// this processor's piece of the replicated v in a pooled buffer the
// caller owns and recycles, at Distribute's cost, under the same span.
// Kernels that only read the replicated piece use it and skip
// Distribute's vector and copy.
func (e *Env) DistributePiece(v *Vector) []float64 {
	if v.Layout == Linear {
		panic("core: Distribute needs an aligned vector (convert with AlignRows/AlignCols)")
	}
	e.BeginSpan("distribute")
	defer e.EndSpan()
	if e.Profiling() {
		e.P.SpanNote("replicate " + v.Layout.String())
	}
	pid := e.P.ID()
	if v.Replicated {
		piece := e.P.GetBuf(len(v.L(pid)))
		copy(piece, v.L(pid))
		e.P.Compute(v.Map.B)
		return piece
	}
	_, home := v.fields()
	mask, root := home.Mask(), home.Rel(v.Home)
	var src []float64
	if v.HoldsData(pid) {
		src = v.L(pid)
	}
	// Every processor makes the same choice from the same parameters,
	// so the collectives stay matched.
	if e.P.Params().PreferTwoPhase(home.K, v.Map.B) {
		return collective.BcastLarge(e.P, mask, e.NextTag2(), root, src)
	}
	return collective.Bcast(e.P, mask, e.NextTag(), root, src)
}

// SpreadRows materializes a row-aligned vector as a matrix with the
// given number of rows, every one of which equals v — the literal
// matrix-shaped Distribute of the paper's primitive compositions
// (vector-matrix multiply as Distribute, elementwise multiply,
// Reduce). Row map kind follows rkind.
func (e *Env) SpreadRows(v *Vector, rows int, rkind embed.MapKind) *Matrix {
	out := e.TempMatrix(rows, v.N, rkind, v.Map.Kind)
	return e.spread(v, out, new(axis).rows(out), "spread-rows")
}

// SpreadCols materializes a col-aligned vector as a matrix with the
// given number of columns, every one of which equals v.
func (e *Env) SpreadCols(v *Vector, cols int, ckind embed.MapKind) *Matrix {
	out := e.TempMatrix(v.N, cols, v.Map.Kind, ckind)
	return e.spread(v, out, new(axis).cols(out), "spread-cols")
}

// spread fills every line of out's axis ax with v, which must hold
// one line, distributing v's piece first unless it is replicated. It
// returns out.
func (e *Env) spread(v *Vector, out *Matrix, ax *axis, span string) *Matrix {
	e.BeginSpan(span)
	defer e.EndSpan()
	if v.Layout != ax.layout {
		panic("core: Spread needs a vector aligned with the lines it fills")
	}
	pid := e.P.ID()
	blk := out.L(pid)
	piece := v.L(pid)
	if !v.Replicated {
		piece = e.DistributePiece(v)
		defer e.P.Recycle(piece)
	}
	// Walk the block in memory order, as reduce does.
	if ax.step == 1 {
		for l := 0; l < ax.line.B; l++ {
			copy(ax.lineAt(blk, l, len(piece)), piece)
		}
	} else {
		for k, val := range piece {
			run := blk[k*ax.step : k*ax.step+ax.line.B]
			for l := range run {
				run[l] = val
			}
		}
	}
	e.P.Compute(ax.line.B * ax.along.B)
	return out
}
