package core

import (
	"fmt"

	"vmprim/internal/embed"
	"vmprim/internal/router"
)

// Embedding changes. The paper notes that "the primitives may indicate
// a change from one embedding to another": converting a vector between
// its linear, row-aligned and col-aligned embeddings, and transposing
// a matrix, are arbitrary (but regular) personalized communications.
// They are implemented on the dimension-ordered router with one
// combined message per (source, destination) processor pair — the
// message combining that distinguishes a primitive from naive
// element-at-a-time access.

// remapItem is one element in flight during an embedding change: the
// processor it moves to, its global index there (nonnegative) and its
// value.
type remapItem struct {
	dst, key int
	val      float64
}

// remapExchange routes every processor's items to their destinations,
// one combined message of (key, value) pairs per destination, and
// returns the messages that arrived here. All processors call it
// together. Destinations are dense in [0, P), so a counting sort lays
// the pairs out as per-destination runs of one slab, in item order
// within a run and ascending destination order across runs.
func (e *Env) remapExchange(items []remapItem) []router.Msg {
	end := make([]int, e.P.P()) // end[d]: where d's run ends so far
	for _, it := range items {
		end[it.dst] += 2
	}
	nmsgs, at := 0, 0
	for d, n := range end {
		if n > 0 {
			nmsgs++
		}
		end[d] = at
		at += n
	}
	slab := make([]float64, at)
	for _, it := range items {
		k := end[it.dst]
		slab[k], slab[k+1] = float64(it.key), it.val
		end[it.dst] = k + 2
	}
	msgs := make([]router.Msg, 0, nmsgs)
	lo := 0
	for d, hi := range end {
		if hi > lo {
			msgs = append(msgs, router.Msg{Dst: d, Key: (hi - lo) / 2, Words: slab[lo:hi]})
			lo = hi
		}
	}
	return router.Route(e.P, e.NextTag(), msgs)
}

// ownedVecItems lists the elements of v this processor is the
// canonical contributor for, each bound for dstOf of its index.
func (e *Env) ownedVecItems(v *Vector, dstOf func(g int) int) []remapItem {
	pid := e.P.ID()
	if !v.HoldsData(pid) || !e.isCanonicalHolder(v) {
		return nil
	}
	pv := v.L(pid)
	c := v.PieceCoord(pid)
	items := make([]remapItem, 0, len(pv))
	for l, val := range pv {
		if g := v.Map.GlobalOf(c, l); g >= 0 {
			items = append(items, remapItem{dst: dstOf(g), key: g, val: val})
		}
	}
	return items
}

// Realign converts a vector to another embedding: layout, map kind,
// home (grid row for RowAligned, grid column for ColAligned; ignored
// for Linear) and replication. It returns a new vector; the input is
// unchanged. One routed personalized communication moves every element
// to its new owner; replication, if requested, adds a Distribute.
func (e *Env) Realign(v *Vector, layout Layout, kind embed.MapKind, home int, replicated bool) *Vector {
	e.BeginSpan("realign")
	defer e.EndSpan()
	if e.Profiling() {
		e.P.SpanNote(v.Layout.String() + "->" + layout.String())
	}
	out := e.TempVector(v.N, layout, kind, home, false)
	got := e.remapExchange(e.ownedVecItems(v, func(g int) int {
		c := out.Map.CoordOf(g)
		switch layout {
		case Linear:
			return linearProcOf(c)
		case RowAligned:
			return e.G.ProcAt(home, c)
		default:
			return e.G.ProcAt(c, home)
		}
	}))
	if len(got) > 0 {
		pv := out.L(e.P.ID())
		n := 0
		for _, m := range got {
			for i := 0; i+1 < len(m.Words); i += 2 {
				pv[out.Map.LocalOf(int(m.Words[i]))] = m.Words[i+1]
			}
			n += len(m.Words) / 2
		}
		e.P.Compute(n)
	}
	if replicated && layout != Linear {
		return e.Distribute(out)
	}
	return out
}

// ToLinear converts any vector to the load-balanced linear embedding.
func (e *Env) ToLinear(v *Vector) *Vector {
	return e.Realign(v, Linear, v.Map.Kind, 0, false)
}

// TransposeInto writes a's transpose into dst, which must be a
// Cols x Rows matrix on the same grid (host-created if the host wants
// to read the result). One routed personalized communication with
// combined per-processor-pair messages carries every element to its
// transposed owner — the classic hypercube matrix transposition as an
// embedding change.
func (e *Env) TransposeInto(dst, a *Matrix) {
	e.BeginSpan("transpose")
	defer e.EndSpan()
	if dst.Rows != a.Cols || dst.Cols != a.Rows || dst.G != a.G {
		panic(fmt.Sprintf("core: TransposeInto dst %dx%d incompatible with src %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	items := make([]remapItem, 0, len(blk))
	for lr := 0; lr < a.RMap.B; lr++ {
		gi := a.RMap.GlobalOf(myRow, lr)
		if gi < 0 {
			continue
		}
		for lc := 0; lc < b; lc++ {
			gj := a.CMap.GlobalOf(myCol, lc)
			if gj < 0 {
				continue
			}
			// Element (gi, gj) becomes dst element (gj, gi).
			items = append(items, remapItem{dst: dst.OwnerOf(gj, gi), key: gj*dst.Cols + gi, val: blk[lr*b+lc]})
		}
	}
	got := e.remapExchange(items)
	if len(got) > 0 {
		db := dst.L(pid)
		bc := dst.CMap.B
		n := 0
		for _, m := range got {
			for k := 0; k+1 < len(m.Words); k += 2 {
				key := int(m.Words[k])
				i, j := key/dst.Cols, key%dst.Cols
				db[dst.RMap.LocalOf(i)*bc+dst.CMap.LocalOf(j)] = m.Words[k+1]
			}
			n += len(m.Words) / 2
		}
		e.P.Compute(n)
	}
}

// Transpose returns a's transpose as an SPMD-local temporary, with row
// and column map kinds swapped along with the axes.
func (e *Env) Transpose(a *Matrix) *Matrix {
	out := e.TempMatrix(a.Cols, a.Rows, a.CMap.Kind, a.RMap.Kind)
	e.TransposeInto(out, a)
	return out
}
