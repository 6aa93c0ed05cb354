package core

import (
	"fmt"

	"vmprim/internal/collective"
)

// This file implements the fourth primitive, Reduce, in its vector-
// producing form (collapse one matrix axis), its scalar forms over a
// single row or column with location (the pivot searches of Gaussian
// elimination and simplex), and the vector loc-reduction used by the
// simplex ratio test.

// ReduceRows collapses the row axis: out[j] = op over i of a[i][j],
// returned as a row-aligned vector. With replicate=true every grid row
// receives the result (an all-reduce over the row dimensions, which
// for long pieces uses recursive halving + doubling — the form that is
// work-optimal for m > p lg p); otherwise the result lands on grid row
// 0. The local pass costs one operation per local element, the
// communication lg(p_r) messages of the m/p-sized local piece.
func (e *Env) ReduceRows(a *Matrix, op Op, replicate bool) *Vector {
	e.BeginSpan("reduce-rows")
	defer e.EndSpan()
	v := e.TempVector(a.Cols, RowAligned, a.CMap.Kind, 0, replicate)
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	piece := e.P.GetBuf(b)
	fillIdentity(piece, op)
	// Padding rows are a suffix of the local block, so the valid rows
	// form the prefix [0, nr) and the fold kernel runs guard-free.
	nr := a.RMap.ValidCount(e.GridRow())
	fold := op.combiner()
	for lr := 0; lr < nr; lr++ {
		fold(piece, blk[lr*b:(lr+1)*b])
	}
	e.P.Compute(nr * b)
	e.finishReduce(v, piece, e.G.RowMask(), replicate, op)
	e.P.Recycle(piece)
	return v
}

// ReduceCols collapses the column axis: out[i] = op over j of a[i][j],
// returned as a col-aligned vector (on grid column 0 unless
// replicated).
func (e *Env) ReduceCols(a *Matrix, op Op, replicate bool) *Vector {
	e.BeginSpan("reduce-cols")
	defer e.EndSpan()
	v := e.TempVector(a.Rows, ColAligned, a.RMap.Kind, 0, replicate)
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	piece := e.P.GetBuf(a.RMap.B)
	// Padding columns are a suffix: every row folds the valid prefix
	// [0, nc). Padding rows still fold (their slots ride the collective
	// exactly as in the per-element form).
	nc := a.CMap.ValidCount(e.GridCol())
	id := op.identity()
	for lr := 0; lr < a.RMap.B; lr++ {
		piece[lr] = foldSlice(op, id, blk[lr*b:lr*b+nc])
	}
	e.P.Compute(a.RMap.B * nc)
	e.finishReduce(v, piece, e.G.ColMask(), replicate, op)
	e.P.Recycle(piece)
	return v
}

// finishReduce combines the local pieces across mask and stores the
// result into v on the receiving processors.
func (e *Env) finishReduce(v *Vector, piece []float64, mask int, replicate bool, op Op) {
	pid := e.P.ID()
	if replicate {
		res := collective.AllReduce(e.P, mask, e.NextTag2(), piece, op.combiner())
		copy(v.L(pid), res)
		e.P.Recycle(res)
		return
	}
	res := collective.Reduce(e.P, mask, e.NextTag(), 0, piece, op.combiner())
	if res != nil {
		copy(v.L(pid), res)
		e.P.Recycle(res)
	}
}

// ReduceAll reduces every element of the matrix to a single scalar,
// replicated on all processors: a local fold followed by a one-word
// all-reduce over the whole cube.
func (e *Env) ReduceAll(a *Matrix, op Op) float64 {
	e.BeginSpan("reduce-all")
	defer e.EndSpan()
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	nr := a.RMap.ValidCount(e.GridRow())
	nc := a.CMap.ValidCount(e.GridCol())
	acc := op.identity()
	for lr := 0; lr < nr; lr++ {
		acc = foldSlice(op, acc, blk[lr*b:lr*b+nc])
	}
	e.P.Compute(nr * nc)
	out := e.allReduceScalar(acc, op.combiner())
	return out
}

// allReduceScalar rides a one-word all-reduce over the whole cube on
// pooled buffers.
func (e *Env) allReduceScalar(x float64, comb collective.Combiner) float64 {
	buf := e.P.GetBuf(1)
	buf[0] = x
	res := collective.AllReduce(e.P, e.P.FullMask(), e.NextTag(), buf, comb)
	out := res[0]
	e.P.Recycle(res)
	e.P.Recycle(buf)
	return out
}

// allReducePair is allReduceScalar for the (value, index) pairs of the
// loc-reductions.
func (e *Env) allReducePair(val, idx float64, comb collective.Combiner) (float64, float64) {
	buf := e.P.GetBuf(2)
	buf[0], buf[1] = val, idx
	res := collective.AllReduce(e.P, e.P.FullMask(), e.NextTag(), buf, comb)
	v, i := res[0], res[1]
	e.P.Recycle(res)
	e.P.Recycle(buf)
	return v, i
}

// ReduceColLoc finds op over column j restricted to rows [lo, hi),
// returning the winning (transformed) value and its global row index,
// replicated on every processor. An empty range returns index -1. This
// is the Gaussian-elimination pivot search: the owning grid column
// folds its local elements, then one pair rides a full-cube
// all-reduce.
func (e *Env) ReduceColLoc(a *Matrix, j, lo, hi int, op LocOp) (float64, int) {
	e.BeginSpan("reduce-col-loc")
	defer e.EndSpan()
	if j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("core: ReduceColLoc column %d out of [0,%d)", j, a.Cols))
	}
	val, idx := op.identity()
	if e.GridCol() == a.CMap.CoordOf(j) {
		pid := e.P.ID()
		blk := a.L(pid)
		lc := a.CMap.LocalOf(j)
		b := a.CMap.B
		myRow := e.GridRow()
		// Global rows in [lo, hi) occupy the contiguous local window
		// [l0, l1); walk it with an incremental global index.
		l0, l1 := a.RMap.LocalRange(myRow, lo, hi)
		if l0 < l1 {
			gi := a.RMap.GlobalOf(myRow, l0)
			stride := a.RMap.GlobalStride()
			for lr := l0; lr < l1; lr++ {
				v := op.value(blk[lr*b+lc])
				if op.better(val, idx, v, float64(gi)) {
					val, idx = v, float64(gi)
				}
				gi += stride
			}
		}
		e.P.Compute(l1 - l0)
	}
	rv, ri := e.allReducePair(val, idx, op.combiner())
	if ri >= locNone {
		return rv, -1
	}
	return rv, int(ri)
}

// ReduceRowLoc finds op over row i restricted to columns [lo, hi),
// returning the winning value and its global column index, replicated
// everywhere: the simplex entering-variable test.
func (e *Env) ReduceRowLoc(a *Matrix, i, lo, hi int, op LocOp) (float64, int) {
	e.BeginSpan("reduce-row-loc")
	defer e.EndSpan()
	if i < 0 || i >= a.Rows {
		panic(fmt.Sprintf("core: ReduceRowLoc row %d out of [0,%d)", i, a.Rows))
	}
	val, idx := op.identity()
	if e.GridRow() == a.RMap.CoordOf(i) {
		pid := e.P.ID()
		blk := a.L(pid)
		lr := a.RMap.LocalOf(i)
		b := a.CMap.B
		myCol := e.GridCol()
		l0, l1 := a.CMap.LocalRange(myCol, lo, hi)
		if l0 < l1 {
			gj := a.CMap.GlobalOf(myCol, l0)
			stride := a.CMap.GlobalStride()
			row := blk[lr*b : (lr+1)*b]
			for lc := l0; lc < l1; lc++ {
				v := op.value(row[lc])
				if op.better(val, idx, v, float64(gj)) {
					val, idx = v, float64(gj)
				}
				gj += stride
			}
		}
		e.P.Compute(l1 - l0)
	}
	rv, ri := e.allReducePair(val, idx, op.combiner())
	if ri >= locNone {
		return rv, -1
	}
	return rv, int(ri)
}

// ZipLocVec reduces over two co-located vectors: for each index g in
// [lo, hi), f(g, v[g], w[g]) yields a candidate value and whether it
// participates; the winning (value, index) under op is replicated on
// every processor. An empty candidate set returns index -1. This is
// the simplex ratio test: v the entering column, w the right-hand
// side, f the guarded ratio (Bland-style rules use g to key candidates
// by basis variable).
func (e *Env) ZipLocVec(v, w *Vector, lo, hi int, f func(g int, a, b float64) (float64, bool), op LocOp) (float64, int) {
	e.BeginSpan("zip-loc-vec")
	defer e.EndSpan()
	if !v.SameShape(w) {
		panic("core: ZipLocVec vectors have different shapes")
	}
	pid := e.P.ID()
	val, idx := op.identity()
	if v.HoldsData(pid) && w.HoldsData(pid) && e.isCanonicalHolder(v) {
		pv, pw := v.L(pid), w.L(pid)
		c := v.PieceCoord(pid)
		l0, l1 := v.Map.LocalRange(c, lo, hi)
		if l0 < l1 {
			g := v.Map.GlobalOf(c, l0)
			stride := v.Map.GlobalStride()
			for l := l0; l < l1; l++ {
				cand, ok := f(g, pv[l], pw[l])
				if ok && op.better(val, idx, op.value(cand), float64(g)) {
					val, idx = op.value(cand), float64(g)
				}
				g += stride
			}
		}
		e.P.Compute(2 * (l1 - l0))
	}
	rv, ri := e.allReducePair(val, idx, op.combiner())
	if ri >= locNone {
		return rv, -1
	}
	return rv, int(ri)
}

// isCanonicalHolder reports whether this processor is the designated
// contributor for its piece of v: replicated vectors have one
// contributor per piece (grid row/column 0) so reductions do not count
// copies twice.
func (e *Env) isCanonicalHolder(v *Vector) bool {
	switch {
	case v.Layout == Linear:
		return true
	case !v.Replicated:
		return true
	case v.Layout == RowAligned:
		return e.GridRow() == 0
	default:
		return e.GridCol() == 0
	}
}

// ReduceVec folds all elements of a vector to a scalar, replicated on
// every processor.
func (e *Env) ReduceVec(v *Vector, op Op) float64 {
	e.BeginSpan("reduce-vec")
	defer e.EndSpan()
	pid := e.P.ID()
	acc := op.identity()
	if v.HoldsData(pid) && e.isCanonicalHolder(v) {
		pv := v.L(pid)
		nv := v.Map.ValidCount(v.PieceCoord(pid))
		acc = foldSlice(op, acc, pv[:nv])
		e.P.Compute(nv)
	}
	return e.allReduceScalar(acc, op.combiner())
}

// AllReduceRowsPiece all-reduces a local row-aligned piece (one value
// per local column) across the grid's row dimensions, returning the
// combined piece on every processor. Fused application kernels use it
// to finish a local multiply-accumulate with the Reduce primitive's
// communication structure.
func (e *Env) AllReduceRowsPiece(piece []float64, op Op) []float64 {
	return collective.AllReduce(e.P, e.G.RowMask(), e.NextTag2(), piece, op.combiner())
}

// AllReduceColsPiece is AllReduceRowsPiece along the column dimensions.
func (e *Env) AllReduceColsPiece(piece []float64, op Op) []float64 {
	return collective.AllReduce(e.P, e.G.ColMask(), e.NextTag2(), piece, op.combiner())
}
