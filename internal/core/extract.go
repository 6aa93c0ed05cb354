package core

import (
	"fmt"

	"vmprim/internal/collective"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

// This file implements the first two of the four primitives — Extract
// and Insert — plus the scalar accessors and the row/column swap
// composed from them.

// ExtractRow pulls row i out of the matrix as a row-aligned vector.
// With replicate=false the vector lives on the grid row owning matrix
// row i (pure local data motion: zero communication). With
// replicate=true it is broadcast to every grid row — the combination
// Extract-then-Distribute fused into one call, costing a binomial
// broadcast of the m/p-sized local pieces over the dr row dimensions.
func (e *Env) ExtractRow(a *Matrix, i int, replicate bool) *Vector {
	return e.extract(a, i, replicate, new(axis).rows(a), "extract-row")
}

// ExtractCol pulls column j out of the matrix as a col-aligned vector,
// symmetric to ExtractRow.
func (e *Env) ExtractCol(a *Matrix, j int, replicate bool) *Vector {
	return e.extract(a, j, replicate, new(axis).cols(a), "extract-col")
}

// extract pulls line i of axis ax out of a as a vector homed on the
// line's coordinate: the owning processors copy their local piece of
// the line, and with replicate a broadcast over the lines' field
// carries it to every copy.
func (e *Env) extract(a *Matrix, i int, replicate bool, ax *axis, span string) *Vector {
	e.BeginSpan(span)
	defer e.EndSpan()
	checkIndex(span, i, ax.line.N)
	_, lines := ax.layout.fields(a.G)
	pid := e.P.ID()
	home := ax.line.CoordOf(i)
	dst := e.tempVector(a.G, ax.along.N, ax.layout, *ax.along, home, replicate)
	owner := lines.Coord(pid) == home
	var piece []float64
	if owner {
		piece = e.P.GetBuf(ax.along.B)
		ax.get(piece, a.L(pid), ax.line.LocalOf(i))
		e.P.Compute(ax.along.B)
	}
	switch {
	case replicate:
		got := collective.Bcast(e.P, lines.Mask(), e.NextTag(), lines.Rel(home), piece)
		copy(dst.L(pid), got)
		e.P.Recycle(got)
	case owner:
		copy(dst.L(pid), piece)
	}
	e.P.Recycle(piece)
	return dst
}

// sendAlong moves data from the subcube member at relative address
// fromRel to the member at toRel != fromRel, hop by hop along the
// e-cube path. All subcube members must call it; it returns the data at
// toRel and nil elsewhere.
func (e *Env) sendAlong(mask, fromRel, toRel int, data []float64) []float64 {
	e.BeginSpan("shift")
	defer e.EndSpan()
	myRel := gray.Compact(e.P.ID(), mask)
	var dimBuf [hypercube.MaxDim]int
	dims := gray.AppendDims(dimBuf[:0], mask)
	tag := e.NextTag()
	cur := fromRel
	var buf []float64
	owned := false // buf came from Recv (pooled), not from the caller
	if myRel == fromRel {
		buf = data
	}
	for bit, d := range dims {
		if (fromRel^toRel)>>bit&1 == 0 {
			continue
		}
		next := cur ^ (1 << bit)
		//lint:allow collorder hop-by-hop relay: cur and next are the two endpoints of one e-cube edge, so the Send and the Recv are the matched halves of a single transfer and the partners agree by construction of the route
		switch myRel {
		case cur:
			if owned {
				e.P.SendOwned(d, tag, buf)
			} else {
				e.P.Send(d, tag, buf)
			}
			buf = nil
		case next:
			buf = e.P.Recv(d, tag)
			owned = true
		}
		cur = next
	}
	if myRel == toRel {
		return buf
	}
	return nil
}

// InsertRow stores a row-aligned vector as row i of the matrix: the
// inverse of ExtractRow. If the vector is neither replicated nor homed
// on the owning grid row, its pieces travel the cube path from its
// home row to the owner row first (an embedding change the primitive
// performs implicitly, as the paper describes).
func (e *Env) InsertRow(a *Matrix, v *Vector, i int) {
	e.insert(a, v, i, new(axis).rows(a), "insert-row")
}

// InsertCol stores a col-aligned vector as column j of the matrix,
// symmetric to InsertRow.
func (e *Env) InsertCol(a *Matrix, v *Vector, j int) {
	e.insert(a, v, j, new(axis).cols(a), "insert-col")
}

// insert stores v as line i of axis ax, first moving v's pieces along
// the lines' field from its home to the line's owner unless a copy is
// already there.
func (e *Env) insert(a *Matrix, v *Vector, i int, ax *axis, span string) {
	e.BeginSpan(span)
	defer e.EndSpan()
	checkIndex(span, i, ax.line.N)
	if !ax.fits(v) {
		panic("core: Insert of a vector incompatible with the matrix line embedding")
	}
	_, lines := ax.layout.fields(a.G)
	pid := e.P.ID()
	home := ax.line.CoordOf(i)
	mine := lines.Coord(pid)
	var piece []float64
	moved := false
	switch {
	case v.Replicated || v.Home == home:
		if mine == home {
			piece = v.L(pid)
		}
	default:
		var src []float64
		if mine == v.Home {
			src = v.L(pid)
		}
		piece = e.sendAlong(lines.Mask(), lines.Rel(v.Home), lines.Rel(home), src)
		moved = true // a non-nil piece here is a pooled receive buffer
	}
	if mine == home {
		ax.set(a.L(pid), ax.line.LocalOf(i), piece)
		e.P.Compute(ax.along.B)
		if moved {
			e.P.Recycle(piece)
		}
	}
}

// SwapRows exchanges matrix rows i1 and i2, composed from Extract and
// Insert exactly as a user of the primitives would write it.
func (e *Env) SwapRows(a *Matrix, i1, i2 int) {
	e.BeginSpan("swap-rows")
	defer e.EndSpan()
	if i1 == i2 {
		return
	}
	step := e.Mark()
	r1 := e.ExtractRow(a, i1, false)
	r2 := e.ExtractRow(a, i2, false)
	e.InsertRow(a, r1, i2)
	e.InsertRow(a, r2, i1)
	e.Release(step)
}

// ElemAt reads element (i, j) and replicates it to every processor
// (a one-word broadcast over the whole cube from the owner).
func (e *Env) ElemAt(a *Matrix, i, j int) float64 {
	e.BeginSpan("elem-at")
	defer e.EndSpan()
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("core: ElemAt (%d,%d) out of %dx%d", i, j, a.Rows, a.Cols))
	}
	owner := a.OwnerOf(i, j)
	var x float64
	if e.P.ID() == owner {
		x = a.L(owner)[a.RMap.LocalOf(i)*a.CMap.B+a.CMap.LocalOf(j)]
	}
	return e.BcastWord(owner, x)
}

// BcastWord returns processor owner's x on every processor: a one-word
// broadcast over the whole cube, in pooled buffers. Every processor
// calls it; only owner's x is read.
func (e *Env) BcastWord(owner int, x float64) float64 {
	var data []float64
	if e.P.ID() == owner {
		data = e.P.GetBuf(1)
		data[0] = x
	}
	got := collective.Bcast(e.P, e.P.FullMask(), e.NextTag(), owner, data)
	out := got[0]
	e.P.Recycle(got)
	e.P.Recycle(data)
	return out
}

// SetElem writes element (i, j) on its owner; every processor calls
// it, only the owner acts (no communication).
func (e *Env) SetElem(a *Matrix, i, j int, val float64) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("core: SetElem (%d,%d) out of %dx%d", i, j, a.Rows, a.Cols))
	}
	owner := a.OwnerOf(i, j)
	if e.P.ID() == owner {
		lr, lc := a.RMap.LocalOf(i), a.CMap.LocalOf(j)
		a.L(owner)[lr*a.CMap.B+lc] = val
		e.P.Compute(1)
	}
}

// VecElemAt reads element idx of a vector and replicates it to every
// processor.
func (e *Env) VecElemAt(v *Vector, idx int) float64 {
	e.BeginSpan("vec-elem-at")
	defer e.EndSpan()
	if idx < 0 || idx >= v.N {
		panic(fmt.Sprintf("core: VecElemAt %d out of [0,%d)", idx, v.N))
	}
	owner := v.holder(v.Map.CoordOf(idx), 0)
	var x float64
	if e.P.ID() == owner {
		x = v.L(owner)[v.Map.LocalOf(idx)]
	}
	return e.BcastWord(owner, x)
}

// OwnerProcOf returns the canonical processor owning global element g
// of the vector (the unique holder, or the home/first copy for
// replicated vectors).
func (v *Vector) OwnerProcOf(g int) int { return v.holder(v.Map.CoordOf(g), 0) }

// SetVecElem writes element idx of a vector on its holder(s); every
// processor calls it (with the same value — typically one produced by
// a broadcast or replicated reduction), only holders act, with no
// communication.
func (e *Env) SetVecElem(v *Vector, idx int, val float64) {
	if idx < 0 || idx >= v.N {
		panic(fmt.Sprintf("core: SetVecElem %d out of [0,%d)", idx, v.N))
	}
	pid := e.P.ID()
	c := v.Map.CoordOf(idx)
	if v.HoldsData(pid) && v.PieceCoord(pid) == c {
		v.L(pid)[v.Map.LocalOf(idx)] = val
		e.P.Compute(1)
	}
}
