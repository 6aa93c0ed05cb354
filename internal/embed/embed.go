// Package embed defines the load-balanced embeddings of dense matrices
// and vectors on the hypercube, following the embedding scheme of the
// SPAA 1989 paper: the cube's d address bits are split into dr "row"
// bits and dc "column" bits, giving a 2^dr x 2^dc processor grid; grid
// coordinates are binary-reflected Gray codes of the address bits so
// that adjacent grid rows and columns are cube neighbors; and matrix
// rows (columns) are dealt to grid rows (columns) by either a
// consecutive (block) or a cyclic map. With m matrix elements on p
// processors every processor holds an m/p-element block, which is the
// load balance the primitives' optimality argument rests on. Grid
// rows, grid columns and the whole address are all Fields of the cube
// address, so one piece of arithmetic serves every axis.
//
// This package is pure index arithmetic; the communication performed
// when a primitive changes one embedding into another lives in
// internal/core on top of internal/collective.
package embed

import (
	"fmt"

	"vmprim/internal/gray"
)

// Grid is a two-dimensional processor grid carved out of a cube of
// dimension D: the low Dc address bits select the grid column, the
// high Dr bits the grid row, each through a Gray code.
type Grid struct {
	D  int // cube dimension; D = Dr + Dc
	Dr int // row address bits
	Dc int // column address bits
}

// NewGrid returns a grid with dr row bits and dc column bits.
func NewGrid(dr, dc int) (Grid, error) {
	if dr < 0 || dc < 0 || dr+dc > 20 {
		return Grid{}, fmt.Errorf("embed: invalid grid split dr=%d dc=%d", dr, dc)
	}
	return Grid{D: dr + dc, Dr: dr, Dc: dc}, nil
}

// SplitFor chooses a balanced grid for an R x C matrix on a cube of
// dimension d: the split of d into dr+dc that best matches the matrix
// aspect ratio (so blocks stay as square as the matrix allows), the
// shape the paper recommends for minimizing communication volume.
func SplitFor(d, rows, cols int) Grid {
	best, bestScore := 0, -1.0
	for dr := 0; dr <= d; dr++ {
		dc := d - dr
		// Penalize grids with more processors than rows/cols along an
		// axis (idle processors), then prefer aspect-matched blocks.
		br := float64(rows) / float64(int(1)<<dr)
		bc := float64(cols) / float64(int(1)<<dc)
		score := -abs(br - bc)
		if br < 1 {
			score -= 1e6 * (1 - br)
		}
		if bc < 1 {
			score -= 1e6 * (1 - bc)
		}
		if bestScore == -1 || score > bestScore {
			best, bestScore = dr, score
		}
	}
	g, _ := NewGrid(best, d-best)
	return g
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// PRows returns the number of grid rows, 2^Dr.
func (g Grid) PRows() int { return 1 << g.Dr }

// PCols returns the number of grid columns, 2^Dc.
func (g Grid) PCols() int { return 1 << g.Dc }

// P returns the number of processors, 2^D.
func (g Grid) P() int { return 1 << g.D }

// Field is a Gray-coded bit field of a cube address: the K address
// bits from bit Lo up hold the Gray code of a coordinate in [0, 2^K).
// The zero Field is empty: no bits, one coordinate.
type Field struct {
	Lo int // first address bit
	K  int // width in bits
}

// Size returns the number of coordinates, 2^K.
func (f Field) Size() int { return 1 << f.K }

// Mask returns the cube-dimension mask of the field's bits.
func (f Field) Mask() int { return (1<<f.K - 1) << f.Lo }

// Coord returns the coordinate cube address pid holds in the field.
func (f Field) Coord(pid int) int { return gray.Decode(pid >> f.Lo & (1<<f.K - 1)) }

// Place returns the field's bits of the addresses with coordinate c:
// the processors at c are those with pid&Mask() == Place(c).
func (f Field) Place(c int) int { return gray.Encode(c) << f.Lo }

// Rel returns the subcube-relative address of coordinate c: the id a
// collective over Mask gives its members (gray.Compact of Place(c)).
func (f Field) Rel(c int) int { return gray.Encode(c) }

// Rows returns the field of the grid row: the high Dr address bits.
func (g Grid) Rows() Field { return Field{Lo: g.Dc, K: g.Dr} }

// Cols returns the field of the grid column: the low Dc address bits.
func (g Grid) Cols() Field { return Field{K: g.Dc} }

// Cube returns the field of the whole address.
func (g Grid) Cube() Field { return Field{K: g.D} }

// RowMask returns the mask of the row bits, which broadcasting "down a
// grid column" (to all grid rows) spans.
func (g Grid) RowMask() int { return g.Rows().Mask() }

// ColMask returns the cube-dimension mask of the column address bits.
func (g Grid) ColMask() int { return g.Cols().Mask() }

// ProcAt returns the cube address of the processor at grid coordinate
// (gr, gc). Coordinates are Gray-coded into the address so that
// adjacent coordinates are cube neighbors.
func (g Grid) ProcAt(gr, gc int) int {
	if gr < 0 || gr >= g.PRows() || gc < 0 || gc >= g.PCols() {
		panic(fmt.Sprintf("embed: grid coordinate (%d,%d) out of %dx%d", gr, gc, g.PRows(), g.PCols()))
	}
	return g.Rows().Place(gr) | g.Cols().Place(gc)
}

// RowOf returns the grid row of cube address pid.
func (g Grid) RowOf(pid int) int { return g.Rows().Coord(pid) }

// ColOf returns the grid column of cube address pid.
func (g Grid) ColOf(pid int) int { return g.Cols().Coord(pid) }

// MapKind selects how global indices are dealt to grid coordinates.
type MapKind int

const (
	// Block deals consecutive runs of indices to each coordinate:
	// index e lives at coordinate e/B with local offset e%B, where B
	// is the block size. This is the paper's "consecutive" embedding.
	Block MapKind = iota
	// Cyclic deals indices round-robin: index e lives at coordinate
	// e%2^K with local offset e/2^K. Cyclic embeddings keep shrinking
	// active regions (Gaussian elimination, simplex) load-balanced.
	Cyclic
)

// String returns the map kind's name.
func (k MapKind) String() string {
	switch k {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("MapKind(%d)", int(k))
	}
}

// Map1D distributes N global indices over 2^K grid coordinates with
// equal local storage B = ceil(N/2^K) per coordinate (the final
// partial block is padded; padded slots satisfy GlobalOf(...) < 0).
type Map1D struct {
	N    int     // number of real indices
	K    int     // log2 of the number of grid coordinates
	Kind MapKind // block or cyclic
	B    int     // local storage per coordinate
}

// NewMap1D returns a map of n indices over 2^k coordinates.
func NewMap1D(n, k int, kind MapKind) (Map1D, error) {
	if n < 0 || k < 0 || k > 20 {
		return Map1D{}, fmt.Errorf("embed: invalid Map1D n=%d k=%d", n, k)
	}
	coords := 1 << k
	b := (n + coords - 1) / coords
	if n == 0 {
		b = 0
	}
	return Map1D{N: n, K: k, Kind: kind, B: b}, nil
}

// Coords returns the number of grid coordinates, 2^K.
func (m Map1D) Coords() int { return 1 << m.K }

// PaddedN returns the total local storage across coordinates, B*2^K.
func (m Map1D) PaddedN() int { return m.B << m.K }

// CoordOf returns the grid coordinate owning global index e.
func (m Map1D) CoordOf(e int) int {
	m.check(e)
	if m.Kind == Cyclic {
		return e & (m.Coords() - 1)
	}
	return e / m.B
}

// LocalOf returns the local offset of global index e at its owner.
func (m Map1D) LocalOf(e int) int {
	m.check(e)
	if m.Kind == Cyclic {
		return e >> m.K
	}
	return e % m.B
}

// GlobalOf returns the global index stored at (coord, local), or -1
// if that slot is padding.
func (m Map1D) GlobalOf(coord, local int) int {
	if coord < 0 || coord >= m.Coords() || local < 0 || local >= m.B {
		panic(fmt.Sprintf("embed: slot (%d,%d) out of %dx%d", coord, local, m.Coords(), m.B))
	}
	var e int
	if m.Kind == Cyclic {
		e = local<<m.K | coord
	} else {
		e = coord*m.B + local
	}
	if e >= m.N {
		return -1
	}
	return e
}

// ValidCount returns the number of non-padding local slots at coord.
// Both map kinds assign global indices in increasing order of local
// offset, so the valid slots always form the prefix
// [0, ValidCount(coord)); kernels use this to run tight unguarded
// loops instead of testing GlobalOf per element.
func (m Map1D) ValidCount(coord int) int {
	if coord < 0 || coord >= m.Coords() {
		panic(fmt.Sprintf("embed: coordinate %d out of [0,%d)", coord, m.Coords()))
	}
	if m.B == 0 {
		return 0
	}
	if m.Kind == Cyclic {
		if coord >= m.N {
			return 0
		}
		return min(m.B, (m.N-coord+m.Coords()-1)>>m.K)
	}
	return max(0, min(m.B, m.N-coord*m.B))
}

// LocalRange returns the half-open interval [l0, l1) of local slots at
// coord whose global indices fall in [lo, hi). For both map kinds the
// matching slots are contiguous: Block globals are coord*B + l, Cyclic
// globals are l*2^K + coord, both strictly increasing in l. Restricted
// elementwise updates loop over this interval with no per-element
// bounds tests. lo and hi must satisfy 0 <= lo <= hi <= N.
func (m Map1D) LocalRange(coord, lo, hi int) (l0, l1 int) {
	if coord < 0 || coord >= m.Coords() {
		panic(fmt.Sprintf("embed: coordinate %d out of [0,%d)", coord, m.Coords()))
	}
	if lo < 0 || hi < lo || hi > m.N {
		panic(fmt.Sprintf("embed: range [%d,%d) out of [0,%d]", lo, hi, m.N))
	}
	if m.Kind == Cyclic {
		c := m.Coords()
		if lo > coord {
			l0 = (lo - coord + c - 1) / c
		}
		if hi > coord {
			l1 = (hi - coord + c - 1) / c
		}
	} else {
		base := coord * m.B
		l0 = min(max(lo-base, 0), m.B)
		l1 = min(max(hi-base, 0), m.B)
	}
	l0 = min(l0, m.B)
	l1 = min(l1, m.B)
	if l1 < l0 {
		l1 = l0
	}
	return l0, l1
}

// GlobalStride returns the difference between the global indices of
// consecutive local slots: 1 for Block maps, 2^K for Cyclic. Together
// with GlobalOf(coord, l0) it lets loops carry the global index
// incrementally.
func (m Map1D) GlobalStride() int {
	if m.Kind == Cyclic {
		return m.Coords()
	}
	return 1
}

func (m Map1D) check(e int) {
	if e < 0 || e >= m.N {
		panic(fmt.Sprintf("embed: index %d out of [0,%d)", e, m.N))
	}
}
