package core

import (
	"errors"
	"fmt"

	"vmprim/internal/embed"
	"vmprim/internal/serial"
)

// A piece of a Map1D, seen from the dense index space, is a strided
// run: pieceOf returns how many valid local slots coord has, the global
// index of the first, and the distance between consecutive ones (1 for
// block maps, so the run is contiguous). The host-side loaders below
// walk pieces instead of asking every element for its owner.
func pieceOf(m embed.Map1D, coord int) (n, first, stride int) {
	n = m.ValidCount(coord)
	if n > 0 {
		first = m.GlobalOf(coord, 0)
	}
	return n, first, m.GlobalStride()
}

// toPiece fills local[:n] with dense[first], dense[first+stride], ...
func toPiece(local, dense []float64, n, first, stride int) {
	if stride == 1 {
		copy(local[:n], dense[first:])
		return
	}
	for l := range local[:n] {
		local[l] = dense[first+l*stride]
	}
}

// fromPiece is toPiece's inverse: it scatters local[:n] into dense.
func fromPiece(dense, local []float64, n, first, stride int) {
	if stride == 1 {
		copy(dense[first:], local[:n])
		return
	}
	for l, val := range local[:n] {
		dense[first+l*stride] = val
	}
}

// FromDense distributes a dense matrix onto grid g (host-side: no
// simulated communication; loading input data is outside the timed
// computation, as it was for the paper's experiments). It builds a
// host container, which outlives Runs: an operand read in one Run only
// is staged inside it with Env.LoadDense instead.
func FromDense(g embed.Grid, dm *serial.Mat, rkind, ckind embed.MapKind) (*Matrix, error) {
	a, err := NewMatrix(g, dm.R, dm.C, rkind, ckind)
	if err != nil {
		return nil, err
	}
	a.copyBlocks(dm, true)
	return a, nil
}

// copyBlocks is copyBlock for every block of the grid, dm being all of a.
func (a *Matrix) copyBlocks(dm *serial.Mat, load bool) {
	for pid := 0; pid < a.G.P(); pid++ {
		a.copyBlock(dm, 0, a.G.RowOf(pid), a.G.ColOf(pid), load)
	}
}

// copyBlock copies the block at grid coordinates (gr, gc) from dm if
// load is set, into dm otherwise, dm being columns [j0, j0+dm.C) of a:
// of each local row that stores a global row, the contiguous local
// columns inside that window (Map1D.LocalRange), a strided piece of
// dm's row. Padding is neither read nor written, and a block with no
// valid element in the window is not materialized.
func (a *Matrix) copyBlock(dm *serial.Mat, j0, gr, gc int, load bool) {
	nr, r0, rs := pieceOf(a.RMap, gr)
	l0, l1 := a.CMap.LocalRange(gc, j0, j0+dm.C)
	if nr == 0 || l0 == l1 {
		return
	}
	nc, c0, cs := l1-l0, a.CMap.GlobalOf(gc, l0)-j0, a.CMap.GlobalStride()
	blk := a.L(a.G.ProcAt(gr, gc))
	for lr := 0; lr < nr; lr++ {
		local := blk[lr*a.CMap.B+l0 : lr*a.CMap.B+l1]
		i := r0 + lr*rs
		if load {
			toPiece(local, dm.A[i*dm.C:(i+1)*dm.C], nc, c0, cs)
		} else {
			fromPiece(dm.A[i*dm.C:(i+1)*dm.C], local, nc, c0, cs)
		}
	}
}

// errLoadRows is LoadDense's refusal of blocks whose row counts differ.
var errLoadRows = errors.New("core: LoadDense blocks differ in row count")

// LoadDense stages [blocks[0] | blocks[1] | ...], each block read where
// it lies, inside a Run: every processor calls it with the same
// arguments and gets an SPMD-local temporary holding its own block, as
// FromDense would have dealt it, valid until the end of the Run, at no
// simulated cost. It allocates nothing a slab-held temporary does not,
// so an operand read in one Run, [A | b] included, needs no host copy.
func (e *Env) LoadDense(rkind, ckind embed.MapKind, blocks ...*serial.Mat) *Matrix {
	cols := 0
	for _, b := range blocks {
		if b.R != blocks[0].R {
			panic(errLoadRows)
		}
		cols += b.C
	}
	a := e.TempMatrix(blocks[0].R, cols, rkind, ckind)
	for j0, k := 0, 0; k < len(blocks); j0, k = j0+blocks[k].C, k+1 {
		a.copyBlock(blocks[k], j0, e.GridRow(), e.GridCol(), true)
	}
	return a
}

// errStoreShape is StoreDense's refusal of a dst that is no window of a.
var errStoreShape = errors.New("core: StoreDense shape mismatch")

// StoreDense is LoadDense's twin: every processor calls it from inside
// a Run and writes its own part of columns [j0, j0+dst.C) of a into
// dst (a.Rows x dst.C), as ToDense would have assembled them, padding
// skipped, at no simulated cost. It serves temporaries and host
// containers alike, so a driver's result needs no host copy either.
func (e *Env) StoreDense(dst *serial.Mat, a *Matrix, j0 int) {
	if dst.R != a.Rows || j0 < 0 || j0+dst.C > a.Cols {
		panic(errStoreShape)
	}
	a.copyBlock(dst, j0, e.GridRow(), e.GridCol(), false)
}

// The host accessors' refusals of an SPMD-local temporary, which holds
// one processor's piece or block.
var (
	errDenseLocal    = errors.New("core: ToDense on an SPMD-local matrix")
	errSliceLocal    = errors.New("core: ToSlice on an SPMD-local vector")
	errReplicasLocal = errors.New("core: CheckReplicas on an SPMD-local vector")
)

// ToDense assembles the distributed matrix into a dense one
// (host-side). It panics on SPMD-local temporaries, which hold only
// one processor's block.
func (a *Matrix) ToDense() *serial.Mat {
	if err := a.hostOnly(errDenseLocal); err != nil {
		panic(err)
	}
	dm := serial.NewMat(a.Rows, a.Cols)
	a.copyBlocks(dm, false)
	return dm
}

// VectorFromSlice distributes a dense vector (host-side). Layout,
// kind, home and replicated have the NewVector meanings.
func VectorFromSlice(g embed.Grid, x []float64, layout Layout, kind embed.MapKind, home int, replicated bool) (*Vector, error) {
	v, err := NewVector(g, len(x), layout, kind, home, replicated)
	if err != nil {
		return nil, err
	}
	v.carve()
	for c := 0; c < v.Map.Coords(); c++ {
		n, first, stride := pieceOf(v.Map, c)
		if n == 0 {
			continue
		}
		for k := 0; k < v.copies(); k++ {
			toPiece(v.L(v.holder(c, k)), x, n, first, stride)
		}
	}
	return v, nil
}

// LoadSlice is LoadDense's twin for vectors: an SPMD-local temporary
// holding this processor's piece of x if it holds data, laid out as
// VectorFromSlice would have, at no simulated cost.
func (e *Env) LoadSlice(x []float64, layout Layout, kind embed.MapKind, home int, replicated bool) *Vector {
	v := e.TempVector(len(x), layout, kind, home, replicated)
	pid := e.P.ID()
	if !v.HoldsData(pid) {
		return v
	}
	if n, first, stride := pieceOf(v.Map, v.PieceCoord(pid)); n > 0 {
		toPiece(v.L(pid), x, n, first, stride)
	}
	return v
}

// errStoreLength is StoreSlice's refusal of a slice whose length is not
// the vector's.
var errStoreLength = errors.New("core: StoreSlice length mismatch")

// StoreSlice writes v into dst (len v.N) from inside a Run: every
// processor calls it, and the one ToSlice would read a piece from,
// its first holder, writes that piece, at no simulated cost. It serves
// temporaries and host containers alike, so a driver's result needs no
// host container to land in.
func (e *Env) StoreSlice(dst []float64, v *Vector) {
	if len(dst) != v.N {
		panic(errStoreLength)
	}
	pid := e.P.ID()
	c := v.PieceCoord(pid)
	if pid != v.holder(c, 0) {
		return
	}
	if n, first, stride := pieceOf(v.Map, c); n > 0 {
		fromPiece(dst, v.L(pid), n, first, stride)
	}
}

// carve backs every piece that holds data, on each of its holders,
// with one slice of a single array (see Matrix.carve).
func (v *Vector) carve() {
	b := v.Map.B
	buf := make([]float64, dataCoords(v.Map)*v.copies()*b)
	for c := 0; c < v.Map.Coords(); c++ {
		if v.Map.ValidCount(c) == 0 {
			continue
		}
		for k := 0; k < v.copies(); k++ {
			v.all[v.holder(c, k)], buf = buf[:b:b], buf[b:]
		}
	}
}

// copies returns the number of processors storing each piece, and
// holder(c, k) the k-th of them for piece coordinate c.
func (v *Vector) copies() int {
	if !v.Replicated {
		return 1
	}
	_, home := v.fields()
	return home.Size()
}

func (v *Vector) holder(c, k int) int {
	if !v.Replicated {
		k = v.Home
	}
	deal, home := v.fields()
	return deal.Place(c) | home.Place(k)
}

// ToSlice assembles the distributed vector into a dense slice
// (host-side), reading each piece from one holder. It panics on
// SPMD-local temporaries.
func (v *Vector) ToSlice() []float64 {
	if err := v.hostOnly(errSliceLocal); err != nil {
		panic(err)
	}
	out := make([]float64, v.N)
	for c := 0; c < v.Map.Coords(); c++ {
		n, first, stride := pieceOf(v.Map, c)
		if n == 0 {
			continue
		}
		fromPiece(out, v.L(v.holder(c, 0)), n, first, stride)
	}
	return out
}

// CheckReplicas verifies (host-side) that a replicated vector's copies
// agree across all holders; it returns an error naming the first
// mismatch, piece by piece. Tests use it to catch broken replication
// invariants.
func (v *Vector) CheckReplicas() error {
	if err := v.hostOnly(errReplicasLocal); err != nil {
		return err
	}
	if !v.Replicated {
		return nil
	}
	for c := 0; c < v.Map.Coords(); c++ {
		n, first, stride := pieceOf(v.Map, c)
		if n == 0 {
			continue
		}
		ref := v.holder(c, 0)
		want := v.L(ref)[:n]
		for k := 1; k < v.copies(); k++ {
			pid := v.holder(c, k)
			for l, got := range v.L(pid)[:n] {
				if got != want[l] {
					return fmt.Errorf("core: replica mismatch at element %d: proc %d has %v, proc %d has %v",
						first+l*stride, ref, want[l], pid, got)
				}
			}
		}
	}
	return nil
}
