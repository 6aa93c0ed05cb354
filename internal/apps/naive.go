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
// the router, one request per element, each asked by its offset in its
// owner's block; every processor calls, proc 0 returns the values in
// order, in scratch words of the caller's step, others nil.
func naiveFetchElems(e *core.Env, a *core.Matrix, idx [][2]int) []float64 {
	var want router.Batch
	if e.P.ID() == 0 {
		want = router.NewBatch(e.P, len(idx), 0)
		for _, ij := range idx {
			want.Ask(a.OwnerOf(ij[0], ij[1]), a.RMap.LocalOf(ij[0])*a.CMap.B+a.CMap.LocalOf(ij[1]))
		}
	}
	blk := a.L(e.P.ID())
	got := want.Request(e.P, e.NextTag2(), func(k int) []float64 { return blk[k : k+1] })
	if e.P.ID() != 0 {
		return nil
	}
	vals := e.P.Scratch(len(idx))
	for q, w, ok := got.Next(); ok; q, w, ok = got.Next() {
		vals[q] = w[0]
	}
	return vals
}

// naiveSwapRows swaps rows i1 and i2 of a, one routed message per
// element, each keyed by its offset in the receiver's block.
func naiveSwapRows(e *core.Env, a *core.Matrix, i1, i2 int) {
	if i1 == i2 {
		return
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	nc := a.CMap.ValidCount(e.GridCol())
	out := router.NewBatch(e.P, 2*b, 2*b)
	for _, pair := range [2][2]int{{i1, i2}, {i2, i1}} {
		from, to := pair[0], pair[1]
		if e.GridRow() != a.RMap.CoordOf(from) {
			continue
		}
		// Row to lies in this grid column too, at the same local
		// columns.
		at := pid&^a.G.RowMask() | a.G.Rows().Place(a.RMap.CoordOf(to))
		lf, lt := a.RMap.LocalOf(from)*b, a.RMap.LocalOf(to)*b
		for lc, val := range blk[lf : lf+nc] {
			out.Add(at, lt+lc, 1)[0] = val
		}
	}
	got := out.Route(e.P, e.NextTag())
	for k, w, ok := got.Next(); ok; k, w, ok = got.Next() {
		blk[k] = w[0]
	}
}

// naiveSpread sends each element of one line of a, at positions [lo,
// hi), to every processor that holds that position of some line, one
// message per (element, destination): row idx down its elements' grid
// columns if row, column idx along their grid rows otherwise. It
// overwrites vals (one word per local position along a line: a.CMap.B
// if row, a.RMap.B otherwise) with local position -> value, NaN where
// nothing arrived, and returns it, so a kernel spreads every step into
// the same two buffers.
func naiveSpread(e *core.Env, a *core.Matrix, row bool, idx, lo, hi int, vals []float64) []float64 {
	pid := e.P.ID()
	blk := a.L(pid)
	// The line index is dealt over the field lines, the positions along
	// a line over along; position k of local line l is blk[l*stride+k*step].
	lineMap, alongMap := &a.RMap, &a.CMap
	lines, along := e.G.Rows(), e.G.Cols()
	stride, step := a.CMap.B, 1
	if !row {
		lineMap, alongMap = &a.CMap, &a.RMap
		lines, along = e.G.Cols(), e.G.Rows()
		stride, step = 1, a.CMap.B
	}
	myAlong := along.Coord(pid)
	var out router.Batch
	if lines.Coord(pid) == lineMap.CoordOf(idx) {
		// Every destination holds the same positions along a line, so a
		// message is keyed by the local position it lands at.
		k0, k1 := alongMap.LocalRange(myAlong, lo, hi)
		n := k1 - k0
		out = router.NewBatch(e.P, n*lines.Size(), n*lines.Size())
		l := lineMap.LocalOf(idx)
		for k := k0; k < k1; k++ {
			for q := 0; q < lines.Size(); q++ {
				out.Add(pid&^lines.Mask()|lines.Place(q), k, 1)[0] = blk[l*stride+k*step]
			}
		}
	}
	got := out.Route(e.P, e.NextTag())
	for i := range vals {
		vals[i] = math.NaN()
	}
	for k, w, ok := got.Next(); ok; k, w, ok = got.Next() {
		vals[k] = w[0]
	}
	return vals
}
