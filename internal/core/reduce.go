package core

import "vmprim/internal/collective"

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
	return e.reduce(a, op, replicate, new(axis).rows(a), "reduce-rows")
}

// ReduceCols collapses the column axis: out[i] = op over j of a[i][j],
// returned as a col-aligned vector (on grid column 0 unless
// replicated).
func (e *Env) ReduceCols(a *Matrix, op Op, replicate bool) *Vector {
	return e.reduce(a, op, replicate, new(axis).cols(a), "reduce-cols")
}

// reduce folds the lines of axis ax into one line, a vector homed on
// coordinate 0 of the lines' field or replicated across it.
func (e *Env) reduce(a *Matrix, op Op, replicate bool, ax *axis, span string) *Vector {
	e.BeginSpan(span)
	defer e.EndSpan()
	v := e.TempVector(ax.along.N, ax.layout, ax.along.Kind, 0, replicate)
	_, lines := ax.layout.fields(a.G)
	pid := e.P.ID()
	blk := a.L(pid)
	n := ax.along.B
	piece := e.P.GetBuf(n)
	// Padding lines are a suffix of the local block, so the valid lines
	// form the prefix [0, nl) and the fold kernels run guard-free.
	// Padding positions still fold: their slots ride the collective.
	// The pass walks the block in memory order.
	nl := ax.line.ValidCount(lines.Coord(pid))
	if ax.step == 1 {
		// Each line is contiguous: fold the lines into the piece.
		fillIdentity(piece, op)
		fold := op.combiner()
		for l := 0; l < nl; l++ {
			fold(piece, ax.lineAt(blk, l, n))
		}
	} else {
		// Lines are interleaved (stride 1): each position's valid lines
		// form one contiguous run.
		id := op.identity()
		for k := range piece {
			piece[k] = foldSlice(op, id, blk[k*ax.step:k*ax.step+nl])
		}
	}
	e.P.Compute(nl * n)
	e.finishReduce(v, piece, lines.Mask(), replicate, op)
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
	return e.reduceLoc(a, j, lo, hi, op, new(axis).cols(a), "reduce-col-loc")
}

// ReduceRowLoc finds op over row i restricted to columns [lo, hi),
// returning the winning value and its global column index, replicated
// everywhere: the simplex entering-variable test.
func (e *Env) ReduceRowLoc(a *Matrix, i, lo, hi int, op LocOp) (float64, int) {
	return e.reduceLoc(a, i, lo, hi, op, new(axis).rows(a), "reduce-row-loc")
}

// reduceLoc finds op over line i of axis ax restricted to the
// positions [lo, hi), returning the winning value and its position.
func (e *Env) reduceLoc(a *Matrix, i, lo, hi int, op LocOp, ax *axis, span string) (float64, int) {
	e.BeginSpan(span)
	defer e.EndSpan()
	checkIndex(span, i, ax.line.N)
	val, idx := op.identity()
	along, lines := ax.layout.fields(a.G)
	if pid := e.P.ID(); lines.Coord(pid) == ax.line.CoordOf(i) {
		blk := a.L(pid)
		off := ax.line.LocalOf(i) * ax.stride
		me := along.Coord(pid)
		// Global positions in [lo, hi) occupy the contiguous local
		// window [l0, l1); walk it with an incremental global index.
		l0, l1 := ax.along.LocalRange(me, lo, hi)
		if l0 < l1 {
			g := ax.along.GlobalOf(me, l0)
			stride := ax.along.GlobalStride()
			for k := l0; k < l1; k++ {
				v := op.value(blk[off+k*ax.step])
				if op.better(val, idx, v, float64(g)) {
					val, idx = v, float64(g)
				}
				g += stride
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
	if v.contributes(pid) && w.HoldsData(pid) {
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

// ReduceVec folds all elements of a vector to a scalar, replicated on
// every processor.
func (e *Env) ReduceVec(v *Vector, op Op) float64 {
	e.BeginSpan("reduce-vec")
	defer e.EndSpan()
	pid := e.P.ID()
	acc := op.identity()
	if v.contributes(pid) {
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
