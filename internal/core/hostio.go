package core

import (
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
// computation, as it was for the paper's experiments).
func FromDense(g embed.Grid, dm *serial.Mat, rkind, ckind embed.MapKind) (*Matrix, error) {
	a, err := NewMatrix(g, dm.R, dm.C, rkind, ckind)
	if err != nil {
		return nil, err
	}
	a.eachBlockRow(func(blockRow []float64, i, nc, c0, cs int) {
		toPiece(blockRow, dm.A[i*dm.C:(i+1)*dm.C], nc, c0, cs)
	})
	return a, nil
}

// eachBlockRow calls f once per local row of every block that holds
// data: blockRow is the local row, i the global row it stores, and
// (nc, c0, cs) the column piece it covers (see pieceOf). Blocks with
// no valid element are not materialized.
func (a *Matrix) eachBlockRow(f func(blockRow []float64, i, nc, c0, cs int)) {
	for gr := 0; gr < a.G.PRows(); gr++ {
		nr, r0, rs := pieceOf(a.RMap, gr)
		for gc := 0; gc < a.G.PCols(); gc++ {
			nc, c0, cs := pieceOf(a.CMap, gc)
			if nr == 0 || nc == 0 {
				continue
			}
			blk := a.L(a.G.ProcAt(gr, gc))
			for lr := 0; lr < nr; lr++ {
				f(blk[lr*a.CMap.B:(lr+1)*a.CMap.B], r0+lr*rs, nc, c0, cs)
			}
		}
	}
}

// ToDense assembles the distributed matrix into a dense one
// (host-side). It panics on SPMD-local temporaries, which hold only
// one processor's block.
func (a *Matrix) ToDense() *serial.Mat {
	if a.isLocal {
		if a.expired {
			panic(errExpired)
		}
		panic("core: ToDense on an SPMD-local matrix")
	}
	dm := serial.NewMat(a.Rows, a.Cols)
	a.eachBlockRow(func(blockRow []float64, i, nc, c0, cs int) {
		fromPiece(dm.A[i*dm.C:(i+1)*dm.C], blockRow, nc, c0, cs)
	})
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
			v.vals[v.holder(c, k)], buf = buf[:b:b], buf[b:]
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
	if v.isLocal {
		if v.expired {
			panic(errExpired)
		}
		panic("core: ToSlice on an SPMD-local vector")
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
	if v.expired {
		return errExpired
	}
	if v.isLocal {
		return fmt.Errorf("core: CheckReplicas on an SPMD-local vector")
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
