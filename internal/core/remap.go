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

// remap lays the elements of an embedding change out for the router:
// one combined message of (destination-local offset, value) pairs per
// destination, keyed by its pair count, in source order within a
// message and ascending destination order across messages, so the
// receiver stores each value with one index. Destinations are dense in
// [0, P), so this is a counting sort, run as two passes over the source
// that make the same add calls: the first counts, the second fills the
// payloads of the router.Batch the count sized. The callers work out
// each element's destination and offset once per call, into tables
// borrowed from the machine's pool and returned before the exchange,
// so neither pass divides.
type remap struct {
	e    *Env
	end  []float64 // per destination: its message's length, then where it ends so far in run
	run  []float64 // the batch from the first payload on
	b    router.Batch
	pass int
}

// passes starts the next pass and reports whether there is one: the
// first call starts counting, the second lays the messages out and
// starts filling, the third ends the sort.
func (r *remap) passes() bool {
	r.pass++
	switch r.pass {
	case 1:
		r.end = r.e.P.GetBuf(r.e.P.P())
		clear(r.end)
	case 2:
		msgs, words := 0, 0
		for _, n := range r.end {
			if n > 0 {
				msgs, words = msgs+1, words+int(n)
			}
		}
		// Sized exactly, the batch never moves: a payload pl lies
		// cap(r.run)-cap(pl) words into r.run.
		r.b = router.NewBatch(r.e.P, msgs, words)
		for d, n := range r.end {
			if n > 0 {
				pl := r.b.Add(d, int(n)/2, int(n))
				if r.run == nil {
					r.run = pl[:cap(pl)]
				}
				r.end[d] = float64(cap(r.run) - cap(pl))
			}
		}
	}
	return r.pass <= 2
}

// add sends val to processor dst, to be stored at offset off of dst's
// local piece or block.
func (r *remap) add(dst, off int, val float64) {
	if r.pass == 1 {
		r.end[dst] += 2
		return
	}
	k := int(r.end[dst])
	r.run[k], r.run[k+1] = float64(off), val
	r.end[dst] += 2
}

// exchange routes every processor's batch to its destinations and
// returns what arrived here. All processors call it together, after
// the sort or, with nothing to send, without one.
func (r *remap) exchange() router.Inbox {
	if r.end != nil {
		r.e.P.Recycle(r.end)
	}
	return r.b.Route(r.e.P, r.e.NextTag())
}

// validPrefix returns how many local slots at coordinate c of m hold an
// element, the global index of the first and the global stride between
// consecutive ones: slot l holds g0 + l*stride for l < n. A coordinate
// with no element (m.B may be 0) gives n = 0 and g0 = 0.
func validPrefix(m *embed.Map1D, c int) (n, g0, stride int) {
	if n = m.ValidCount(c); n > 0 {
		g0 = m.GlobalOf(c, 0)
	}
	return n, g0, m.GlobalStride()
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
	r := remap{e: e}
	// This processor sends the elements it is the canonical
	// contributor for, each to its owner under the new embedding.
	if pid := e.P.ID(); v.contributes(pid) {
		n, g, s := validPrefix(&v.Map, v.PieceCoord(pid))
		deal, hf := out.fields()
		at := hf.Place(out.Home)
		// Per element: its owner, then its offset there.
		to := e.P.GetBuf(2 * n)
		for l := 0; l < n; l, g = l+1, g+s {
			to[2*l], to[2*l+1] = float64(deal.Place(out.Map.CoordOf(g))|at), float64(out.Map.LocalOf(g))
		}
		for r.passes() {
			for l, val := range v.L(pid)[:n] {
				r.add(int(to[2*l]), int(to[2*l+1]), val)
			}
		}
		e.P.Recycle(to)
	}
	got := r.exchange()
	if _, words, ok := got.Next(); ok {
		pv := out.L(e.P.ID())
		n := 0
		for ; ok; _, words, ok = got.Next() {
			for i := 0; i+1 < len(words); i += 2 {
				pv[int(words[i])] = words[i+1]
			}
			n += len(words) / 2
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
	nr, gi, si := validPrefix(&a.RMap, e.GridRow())
	nc, gj, sj := validPrefix(&a.CMap, e.GridCol())
	// Element (gi, gj) becomes dst element (gj, gi), on the processor
	// at dst's grid row of gj and grid column of gi, at local row
	// dst.RMap.LocalOf(gj) and column dst.CMap.LocalOf(gi). Per local
	// row: the grid-column place and the column offset; per local
	// column: the grid-row place and the row's offset in dst's block.
	t := e.P.GetBuf(2 * (nr + nc))
	rows, cols := t[:2*nr], t[2*nr:]
	for lr := 0; lr < nr; lr, gi = lr+1, gi+si {
		rows[2*lr], rows[2*lr+1] = float64(dst.G.Cols().Place(dst.CMap.CoordOf(gi))), float64(dst.CMap.LocalOf(gi))
	}
	for lc := 0; lc < nc; lc, gj = lc+1, gj+sj {
		cols[2*lc], cols[2*lc+1] = float64(dst.G.Rows().Place(dst.RMap.CoordOf(gj))), float64(dst.RMap.LocalOf(gj)*dst.CMap.B)
	}
	r := remap{e: e}
	for r.passes() {
		for lr := 0; lr < nr; lr++ {
			at, off := int(rows[2*lr]), int(rows[2*lr+1])
			for lc, val := range blk[lr*b : lr*b+nc] {
				r.add(at|int(cols[2*lc]), off+int(cols[2*lc+1]), val)
			}
		}
	}
	e.P.Recycle(t)
	got := r.exchange()
	if _, words, ok := got.Next(); ok {
		db := dst.L(pid)
		n := 0
		for ; ok; _, words, ok = got.Next() {
			for k := 0; k+1 < len(words); k += 2 {
				db[int(words[k])] = words[k+1]
			}
			n += len(words) / 2
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
