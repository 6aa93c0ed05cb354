package core

import "fmt"

// Elementwise operations on distributed matrices and vectors. These
// are the "local arithmetic" phases between primitives: no
// communication, pure block loops, charged to the cost model at
// flopsPer operations per element touched. Padding slots are never
// visited.

// MapRange applies f in place to every element a[i][j] with
// rlo <= i < rhi and clo <= j < chi. f receives global indices.
func (e *Env) MapRange(a *Matrix, rlo, rhi, clo, chi int, f func(i, j int, v float64) float64, flopsPer int) {
	e.BeginSpan("map-range")
	defer e.EndSpan()
	if rlo < 0 || rhi > a.Rows || clo < 0 || chi > a.Cols {
		panic(fmt.Sprintf("core: MapRange [%d,%d)x[%d,%d) out of %dx%d", rlo, rhi, clo, chi, a.Rows, a.Cols))
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	// The restricted global ranges occupy contiguous local windows;
	// walk them with incremental global indices instead of per-element
	// GlobalOf guards.
	lr0, lr1 := a.RMap.LocalRange(myRow, rlo, rhi)
	lc0, lc1 := a.CMap.LocalRange(myCol, clo, chi)
	if lr0 >= lr1 || lc0 >= lc1 {
		e.P.Compute(0)
		return
	}
	gi := a.RMap.GlobalOf(myRow, lr0)
	gj0 := a.CMap.GlobalOf(myCol, lc0)
	rstride, cstride := a.RMap.GlobalStride(), a.CMap.GlobalStride()
	for lr := lr0; lr < lr1; lr++ {
		row := blk[lr*b+lc0 : lr*b+lc1]
		gj := gj0
		for lc := range row {
			row[lc] = f(gi, gj, row[lc])
			gj += cstride
		}
		gi += rstride
	}
	e.P.Compute((lr1 - lr0) * (lc1 - lc0) * flopsPer)
}

// MapMatrix applies f in place to every element.
func (e *Env) MapMatrix(a *Matrix, f func(i, j int, v float64) float64, flopsPer int) {
	e.MapRange(a, 0, a.Rows, 0, a.Cols, f, flopsPer)
}

// ZipMatrix applies dst[i][j] = f(dst[i][j], src[i][j]) in place; the
// matrices must share shape, grid and maps so the blocks align.
func (e *Env) ZipMatrix(dst, src *Matrix, f func(a, b float64) float64, flopsPer int) {
	e.BeginSpan("zip-matrix")
	defer e.EndSpan()
	if !dst.SameShape(src) {
		panic("core: ZipMatrix shape/embedding mismatch")
	}
	pid := e.P.ID()
	db, sb := dst.L(pid), src.L(pid)
	b := dst.CMap.B
	nr := dst.RMap.ValidCount(e.GridRow())
	nc := dst.CMap.ValidCount(e.GridCol())
	for lr := 0; lr < nr; lr++ {
		base := lr * b
		for lc := 0; lc < nc; lc++ {
			i := base + lc
			db[i] = f(db[i], sb[i])
		}
	}
	e.P.Compute(nr * nc * flopsPer)
}

// UpdateOuter applies the restricted rank-1-style update
//
//	a[i][j] = f(a[i][j], cv[i], rv[j])   for i in [rlo,rhi), j in [clo,chi)
//
// where cv is col-aligned and rv row-aligned, both replicated (call
// Distribute first — this is exactly the Distribute+elementwise flow
// of the paper's Gaussian elimination and simplex updates). The
// default f for elimination is a - c*r at 2 flops per element.
func (e *Env) UpdateOuter(a *Matrix, cv, rv *Vector, rlo, rhi, clo, chi int, f func(aij, ci, rj float64) float64, flopsPer int) {
	e.BeginSpan("update-outer")
	defer e.EndSpan()
	blk, cvp, rvp, lr0, lr1, lc0, lc1, b := e.outerWindows(a, cv, rv, rlo, rhi, clo, chi)
	for lr := lr0; lr < lr1; lr++ {
		ci := cvp[lr]
		row := blk[lr*b+lc0 : lr*b+lc1]
		rvw := rvp[lc0:lc1]
		for lc, r := range rvw {
			row[lc] = f(row[lc], ci, r)
		}
	}
	e.P.Compute((lr1 - lr0) * (lc1 - lc0) * flopsPer)
}

// UpdateOuterSub is UpdateOuter fused for the elimination update
// a[i][j] -= cv[i]*rv[j] (2 flops per element): the inner loop is a
// monomorphic multiply-subtract with no closure call, the hot kernel
// of Gaussian elimination, LU and simplex pivoting.
func (e *Env) UpdateOuterSub(a *Matrix, cv, rv *Vector, rlo, rhi, clo, chi int) {
	e.BeginSpan("update-outer-sub")
	defer e.EndSpan()
	blk, cvp, rvp, lr0, lr1, lc0, lc1, b := e.outerWindows(a, cv, rv, rlo, rhi, clo, chi)
	for lr := lr0; lr < lr1; lr++ {
		subOuterRow(blk[lr*b+lc0:lr*b+lc1], cvp[lr], rvp[lc0:lc1])
	}
	e.P.Compute((lr1 - lr0) * (lc1 - lc0) * 2)
}

// UpdateOuterAddMul is UpdateOuter fused for the accumulation
// a[i][j] += cv[i]*rv[j] (2 flops per element): the rank-1 step of
// the broadcast matrix multiply.
func (e *Env) UpdateOuterAddMul(a *Matrix, cv, rv *Vector, rlo, rhi, clo, chi int) {
	e.BeginSpan("update-outer-addmul")
	defer e.EndSpan()
	blk, cvp, rvp, lr0, lr1, lc0, lc1, b := e.outerWindows(a, cv, rv, rlo, rhi, clo, chi)
	for lr := lr0; lr < lr1; lr++ {
		addMulOuterRow(blk[lr*b+lc0:lr*b+lc1], cvp[lr], rvp[lc0:lc1])
	}
	e.P.Compute((lr1 - lr0) * (lc1 - lc0) * 2)
}

// outerWindows validates the UpdateOuter-family arguments and returns
// the local block, vector pieces and the contiguous local windows
// covering [rlo,rhi) x [clo,chi).
func (e *Env) outerWindows(a *Matrix, cv, rv *Vector, rlo, rhi, clo, chi int) (blk, cvp, rvp []float64, lr0, lr1, lc0, lc1, b int) {
	if !new(axis).cols(a).fits(cv) {
		panic("core: UpdateOuter cv incompatible with matrix rows")
	}
	if !new(axis).rows(a).fits(rv) {
		panic("core: UpdateOuter rv incompatible with matrix cols")
	}
	if !cv.Replicated || !rv.Replicated {
		panic("core: UpdateOuter needs replicated vectors (Distribute first)")
	}
	pid := e.P.ID()
	blk = a.L(pid)
	cvp, rvp = cv.L(pid), rv.L(pid)
	b = a.CMap.B
	lr0, lr1 = a.RMap.LocalRange(e.GridRow(), rlo, rhi)
	lc0, lc1 = a.CMap.LocalRange(e.GridCol(), clo, chi)
	return
}

// MapVec applies f in place to every element of v on its holders.
// f receives the global index.
func (e *Env) MapVec(v *Vector, f func(g int, x float64) float64, flopsPer int) {
	pid := e.P.ID()
	if !v.HoldsData(pid) {
		return
	}
	pv := v.L(pid)
	c := v.PieceCoord(pid)
	nv := v.Map.ValidCount(c)
	if nv > 0 {
		g := v.Map.GlobalOf(c, 0)
		stride := v.Map.GlobalStride()
		for l := 0; l < nv; l++ {
			pv[l] = f(g, pv[l])
			g += stride
		}
	}
	e.P.Compute(nv * flopsPer)
}

// zipSlices validates a ZipVec-family pair and returns the local
// pieces with the length of their valid prefix; ok is false when this
// processor holds no data.
func (e *Env) zipSlices(dst, src *Vector) (dp, sp []float64, nv int, ok bool) {
	if !dst.SameShape(src) {
		panic("core: ZipVec shape mismatch")
	}
	pid := e.P.ID()
	if !dst.HoldsData(pid) {
		return nil, nil, 0, false
	}
	if !src.HoldsData(pid) {
		panic("core: ZipVec src not present where dst is (Distribute or realign first)")
	}
	return dst.L(pid), src.L(pid), dst.Map.ValidCount(dst.PieceCoord(pid)), true
}

// ZipVec applies dst[g] = f(dst[g], src[g]) on processors holding
// both; the vectors must share layout, map, and holders.
func (e *Env) ZipVec(dst, src *Vector, f func(a, b float64) float64, flopsPer int) {
	dp, sp, nv, ok := e.zipSlices(dst, src)
	if !ok {
		return
	}
	for l := 0; l < nv; l++ {
		dp[l] = f(dp[l], sp[l])
	}
	e.P.Compute(nv * flopsPer)
}

// CopyMatrix returns an SPMD-local deep copy of a (same embedding).
func (e *Env) CopyMatrix(a *Matrix) *Matrix {
	out := e.TempMatrix(a.Rows, a.Cols, a.RMap.Kind, a.CMap.Kind)
	pid := e.P.ID()
	copy(out.L(pid), a.L(pid))
	e.P.Compute(len(out.L(pid)))
	return out
}

// CopyVec returns an SPMD-local deep copy of v (same embedding).
func (e *Env) CopyVec(v *Vector) *Vector {
	out := e.tempVector(v.G, v.N, v.Layout, v.Map, v.Home, v.Replicated)
	if pid := e.P.ID(); v.HoldsData(pid) {
		copy(out.L(pid), v.L(pid))
		e.P.Compute(v.Map.B)
	}
	return out
}

// StoreVec copies the values of src into the host-visible vector dst
// (same embedding required). Apps use it to land SPMD results in
// containers the host can read.
func (e *Env) StoreVec(dst, src *Vector) {
	if !dst.SameShape(src) {
		panic("core: StoreVec shape mismatch")
	}
	if dst.Replicated != src.Replicated || dst.Home != src.Home {
		panic("core: StoreVec holder mismatch")
	}
	pid := e.P.ID()
	if src.HoldsData(pid) {
		copy(dst.L(pid), src.L(pid))
	}
}

// StoreMatrix copies the values of src into the host-visible matrix
// dst (same embedding required).
func (e *Env) StoreMatrix(dst, src *Matrix) {
	if !dst.SameShape(src) {
		panic("core: StoreMatrix shape mismatch")
	}
	pid := e.P.ID()
	copy(dst.L(pid), src.L(pid))
}

// ZipVecWith is ZipVec with the global index exposed:
// dst[g] = f(g, dst[g], src[g]) on common holders.
func (e *Env) ZipVecWith(dst, src *Vector, f func(g int, a, b float64) float64, flopsPer int) {
	dp, sp, nv, ok := e.zipSlices(dst, src)
	if !ok {
		return
	}
	if nv > 0 {
		g := dst.Map.GlobalOf(dst.PieceCoord(e.P.ID()), 0)
		stride := dst.Map.GlobalStride()
		for l := 0; l < nv; l++ {
			dp[l] = f(g, dp[l], sp[l])
			g += stride
		}
	}
	e.P.Compute(nv * flopsPer)
}
