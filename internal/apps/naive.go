package apps

import (
	"math"

	"vmprim/internal/core"
	"vmprim/internal/router"
)

// Naive-implementation building blocks. The naive applications use the
// general router for every data motion — one message per element, one
// explicit send per destination — exactly the "straightforward global
// address space" style the paper's primitives displaced. They share no
// code with the structured collectives on purpose.
//
// Each call builds its messages straight into a router.Batch and reads
// what arrives from the router.Inbox: a payload is written once, into
// the buffer the router forwards from, so a message per element need
// not mean an allocation per element on the host.

// naiveBcast has proc src send words to every processor as P separate
// routed messages (no spanning tree, no combining); everyone returns
// the payload.
func naiveBcast(e *core.Env, src int, words []float64) []float64 {
	var out router.Batch
	if e.P.ID() == src {
		out = router.NewBatch(e.P, e.P.P(), e.P.P()*len(words))
		for q := 0; q < e.P.P(); q++ {
			copy(out.Add(q, 0, len(words)), words)
		}
	}
	got := out.Route(e.P, e.NextTag())
	_, w, _ := got.Next()
	return w
}

// naiveFetchElems has proc 0 fetch the listed matrix elements through
// the router, one request per element; every processor calls, proc 0
// returns the values in order, others nil.
func naiveFetchElems(e *core.Env, a *core.Matrix, idx [][2]int) []float64 {
	var want router.Batch
	if e.P.ID() == 0 {
		want = router.NewBatch(e.P, len(idx), 0)
		for _, ij := range idx {
			want.Ask(a.OwnerOf(ij[0], ij[1]), ij[0]*a.Cols+ij[1])
		}
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	got := want.Request(e.P, e.NextTag2(), func(key int) []float64 {
		k := a.RMap.LocalOf(key/a.Cols)*b + a.CMap.LocalOf(key%a.Cols)
		return blk[k : k+1]
	})
	if e.P.ID() != 0 {
		return nil
	}
	vals := make([]float64, len(idx))
	for q, w, ok := got.Next(); ok; q, w, ok = got.Next() {
		vals[q] = w[0]
	}
	return vals
}

func naiveSwapRows(e *core.Env, a *core.Matrix, i1, i2 int) {
	if i1 == i2 {
		return
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	out := router.NewBatch(e.P, 2*b, 2*b)
	for _, pair := range [2][2]int{{i1, i2}, {i2, i1}} {
		from, to := pair[0], pair[1]
		if myRow != a.RMap.CoordOf(from) {
			continue
		}
		lr := a.RMap.LocalOf(from)
		for lc := 0; lc < b; lc++ {
			gj := a.CMap.GlobalOf(myCol, lc)
			if gj < 0 {
				continue
			}
			out.Add(a.OwnerOf(to, gj), to*a.Cols+gj, 1)[0] = blk[lr*b+lc]
		}
	}
	got := out.Route(e.P, e.NextTag())
	for key, w, ok := got.Next(); ok; key, w, ok = got.Next() {
		i, j := key/a.Cols, key%a.Cols
		blk[a.RMap.LocalOf(i)*b+a.CMap.LocalOf(j)] = w[0]
	}
}

// naiveSpreadRow sends each element of matrix row i (columns [clo,
// chi)) to every processor in the element's grid column, one message
// per (element, destination). The result maps local column index ->
// value on every processor.
func naiveSpreadRow(e *core.Env, a *core.Matrix, i, clo, chi int) []float64 {
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	var out router.Batch
	if myRow == a.RMap.CoordOf(i) {
		n := 0
		for lc := 0; lc < b; lc++ {
			if gj := a.CMap.GlobalOf(myCol, lc); gj >= clo && gj < chi {
				n++
			}
		}
		out = router.NewBatch(e.P, n*e.G.PRows(), n*e.G.PRows())
		lr := a.RMap.LocalOf(i)
		for lc := 0; lc < b; lc++ {
			gj := a.CMap.GlobalOf(myCol, lc)
			if gj < clo || gj >= chi {
				continue
			}
			for gr := 0; gr < e.G.PRows(); gr++ {
				out.Add(e.G.ProcAt(gr, myCol), gj, 1)[0] = blk[lr*b+lc]
			}
		}
	}
	got := out.Route(e.P, e.NextTag())
	vals := make([]float64, b)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for key, w, ok := got.Next(); ok; key, w, ok = got.Next() {
		vals[a.CMap.LocalOf(key)] = w[0]
	}
	return vals
}

// naiveSpreadCol is naiveSpreadRow transposed: each element of column
// j (rows [rlo, rhi)) goes to every processor in the element's grid
// row; the result maps local row index -> value.
func naiveSpreadCol(e *core.Env, a *core.Matrix, j, rlo, rhi int) []float64 {
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	var out router.Batch
	if myCol == a.CMap.CoordOf(j) {
		n := 0
		for lr := 0; lr < a.RMap.B; lr++ {
			if gi := a.RMap.GlobalOf(myRow, lr); gi >= rlo && gi < rhi {
				n++
			}
		}
		out = router.NewBatch(e.P, n*e.G.PCols(), n*e.G.PCols())
		lc := a.CMap.LocalOf(j)
		for lr := 0; lr < a.RMap.B; lr++ {
			gi := a.RMap.GlobalOf(myRow, lr)
			if gi < rlo || gi >= rhi {
				continue
			}
			for gc := 0; gc < e.G.PCols(); gc++ {
				out.Add(e.G.ProcAt(myRow, gc), gi, 1)[0] = blk[lr*b+lc]
			}
		}
	}
	got := out.Route(e.P, e.NextTag())
	vals := make([]float64, a.RMap.B)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for key, w, ok := got.Next(); ok; key, w, ok = got.Next() {
		vals[a.RMap.LocalOf(key)] = w[0]
	}
	return vals
}
