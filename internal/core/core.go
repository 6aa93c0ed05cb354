// Package core implements the four vector-matrix primitives of
// Agrawal, Blelloch, Krawitz and Phillips (SPAA 1989) on the simulated
// hypercube multiprocessor: Extract, Insert, Distribute and Reduce,
// together with the distributed matrix and vector types they operate
// on, elementwise operations, and the embedding-change operations
// (vector realignment and matrix transposition) that the paper notes a
// primitive may imply.
//
// # Data types and embeddings
//
// A Matrix is dense, R x C, embedded on the processor grid of an
// embed.Grid: the grid's 2^dr x 2^dc processors each hold a
// load-balanced local block of ceil(R/2^dr) x ceil(C/2^dc) elements,
// dealt to grid rows and columns by a consecutive (block) or cyclic
// map. A Vector is either row-aligned (length C, distributed over the
// grid's column axis, living on one grid row or replicated on all),
// col-aligned (length R, over the row axis), or linear (load-balanced
// over all 2^d processors) — the three vector embeddings whose
// interconversion is itself part of the primitive set. A layout names
// two embed.Fields of the cube address: the field a vector's pieces
// are dealt over (the grid columns, the grid rows, or the whole
// address) and the field it is homed on or replicated across (the
// grid rows, the grid columns, or none). Each primitive has one body
// over a matrix axis; the Row and Col methods are its entry points.
//
// # Programming model
//
// All distributed operations are SPMD: every processor of the machine
// calls the same method in the same order from inside a Machine.Run
// body, through an Env that wraps its Proc handle and manages protocol
// tags. Distributed containers (Matrix, Vector) may be created by host
// code before a run and filled from dense data, or created inside a
// run, in which case each processor lazily materializes only its own
// block. A loop that needs the same temporary every step creates it
// once and refills it with an *Into method (ExtractRowInto,
// ExtractColInto, TransposeInto). All inter-processor data motion
// happens through the collectives of internal/collective over
// cube-edge links, and every operation charges the cost model for its
// communication and arithmetic, so Machine.Elapsed after a run is the
// simulated time of the whole distributed computation.
package core

import (
	"fmt"

	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// Env is one processor's view of a distributed computation: its Proc
// handle, the processor grid, and a deterministic protocol-tag
// sequence. Every processor constructs its own Env at the top of the
// SPMD body; because the body is the same program on every processor,
// the tag sequences stay synchronized.
type Env struct {
	P *hypercube.Proc
	G embed.Grid

	tag int
}

// NewEnv returns the environment for proc p on grid g. The grid must
// exactly cover p's machine.
func NewEnv(p *hypercube.Proc, g embed.Grid) *Env {
	if g.D != p.Dim() {
		panic(fmt.Sprintf("core: grid dimension %d does not match machine dimension %d", g.D, p.Dim()))
	}
	return &Env{P: p, G: g}
}

// NextTag returns a fresh protocol tag. Primitives call it once per
// collective phase; SPMD symmetry keeps all processors' sequences
// identical.
func (e *Env) NextTag() int {
	e.tag++
	return e.tag
}

// NextTag2 reserves two consecutive tags — the shape round-trip
// protocols like router.Request and scatter/all-gather broadcasts need
// — and returns the first.
func (e *Env) NextTag2() int {
	t := e.NextTag()
	e.NextTag()
	return t
}

// BeginSpan opens a named profiling span (see hypercube.Proc.BeginSpan).
// Spans nest; close each with EndSpan. Like every Env operation they
// are SPMD: all processors must open and close the same spans in the
// same order. App drivers use them to mark algorithm phases (pivot,
// eliminate, pricing, ...); every primitive below opens one
// automatically.
func (e *Env) BeginSpan(name string) { e.P.BeginSpan(name) }

// EndSpan closes the innermost open span.
func (e *Env) EndSpan() { e.P.EndSpan() }

// Profiling reports whether spans are being recorded; guard SpanNote
// string building with it.
func (e *Env) Profiling() bool { return e.P.Profiling() }

// GridRow returns this processor's grid row.
func (e *Env) GridRow() int { return e.G.RowOf(e.P.ID()) }

// GridCol returns this processor's grid column.
func (e *Env) GridCol() int { return e.G.ColOf(e.P.ID()) }

// Matrix is a dense matrix distributed over the processor grid. Local
// blocks are row-major with RMap.B local rows and CMap.B local
// columns; slots beyond the logical extent (padding) hold zero and are
// skipped by every operation.
type Matrix struct {
	Rows, Cols int
	G          embed.Grid
	RMap       embed.Map1D // rows over the 2^Dr grid rows
	CMap       embed.Map1D // cols over the 2^Dc grid cols

	// Host-created matrices store every processor's block (blocks);
	// matrices created inside an SPMD body are per-processor handles
	// that store only the creator's block (local), so temporaries cost
	// O(m/p) per processor instead of O(p) slice headers.
	blocks  [][]float64 // indexed by processor address; nil in local mode
	local   []float64
	isLocal bool
}

// NewMatrix returns a zero matrix of the given shape distributed on
// grid g with the given row and column maps.
func NewMatrix(g embed.Grid, rows, cols int, rkind, ckind embed.MapKind) (*Matrix, error) {
	m, err := newMatrixShape(g, rows, cols, rkind, ckind)
	if err != nil {
		return nil, err
	}
	m.blocks = make([][]float64, g.P())
	return m, nil
}

// newMatrixShape validates and builds the matrix header without any
// backing storage: hosts attach the all-processor block table,
// SPMD-local temporaries stay storage-free until L materializes the
// caller's own block.
func newMatrixShape(g embed.Grid, rows, cols int, rkind, ckind embed.MapKind) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("core: invalid shape %dx%d", rows, cols)
	}
	rmap, err := embed.NewMap1D(rows, g.Dr, rkind)
	if err != nil {
		return nil, err
	}
	cmap, err := embed.NewMap1D(cols, g.Dc, ckind)
	if err != nil {
		return nil, err
	}
	return &Matrix{Rows: rows, Cols: cols, G: g, RMap: rmap, CMap: cmap}, nil
}

// MustNewMatrix is NewMatrix for static arguments; panics on error.
func MustNewMatrix(g embed.Grid, rows, cols int, rkind, ckind embed.MapKind) *Matrix {
	m, err := NewMatrix(g, rows, cols, rkind, ckind)
	if err != nil {
		panic(err)
	}
	return m
}

// L returns processor pid's local block, materializing it on first
// use. Only pid's own processor body (or host code outside a run) may
// call it for a given pid. For SPMD-local temporaries pid is ignored:
// the handle belongs to exactly one processor.
func (a *Matrix) L(pid int) []float64 {
	if a.isLocal {
		if a.local == nil {
			a.local = make([]float64, a.RMap.B*a.CMap.B)
		}
		return a.local
	}
	if a.blocks[pid] == nil {
		a.blocks[pid] = make([]float64, a.RMap.B*a.CMap.B)
	}
	return a.blocks[pid]
}

// IsLocal reports whether this is an SPMD-local temporary handle
// (host-side accessors like ToDense refuse to read those).
func (a *Matrix) IsLocal() bool { return a.isLocal }

// LocalRows returns the local block's row count.
func (a *Matrix) LocalRows() int { return a.RMap.B }

// LocalCols returns the local block's column count.
func (a *Matrix) LocalCols() int { return a.CMap.B }

// OwnerOf returns the processor address owning element (i, j).
func (a *Matrix) OwnerOf(i, j int) int {
	return a.G.ProcAt(a.RMap.CoordOf(i), a.CMap.CoordOf(j))
}

// SameShape reports whether b has identical shape, grid and maps.
func (a *Matrix) SameShape(b *Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && a.G == b.G &&
		a.RMap == b.RMap && a.CMap == b.CMap
}

// An axis is a matrix's rows or its columns seen as lines, which
// Extract, Insert, Reduce and Spread each handle in one body. A line is
// held as a vector of the axis's layout: the line index is dealt over
// that layout's home field, the positions over its deal field. Local
// line l's position k sits at block offset l*stride + k*step.
type axis struct {
	line   *embed.Map1D // deals the line index
	along  *embed.Map1D // deals the positions along a line
	stride int          // block offset between consecutive local lines
	step   int          // block offset between consecutive positions
	layout Layout       // layout of a vector that holds one line
}

// rows sets ax to the axis whose lines are a's rows and returns ax.
// Built field by field in the caller's frame, the axis is read in
// place; a composite value is copied once more on the way, a stall
// that cost a local Extract on 4x4 blocks about a sixth of its time.
func (ax *axis) rows(a *Matrix) *axis {
	ax.line, ax.along, ax.stride, ax.step, ax.layout = &a.RMap, &a.CMap, a.CMap.B, 1, RowAligned
	return ax
}

// cols sets ax to the axis whose lines are a's columns and returns ax.
func (ax *axis) cols(a *Matrix) *axis {
	ax.line, ax.along, ax.stride, ax.step, ax.layout = &a.CMap, &a.RMap, 1, a.CMap.B, ColAligned
	return ax
}

// fits reports whether v has the layout, length and map of one line.
func (ax *axis) fits(v *Vector) bool {
	return v.Layout == ax.layout && v.N == ax.along.N && v.Map == *ax.along
}

// lineAt returns local line l of block blk as a slice of n words; it
// needs step 1, where a line is contiguous.
func (ax *axis) lineAt(blk []float64, l, n int) []float64 {
	return blk[l*ax.stride : l*ax.stride+n]
}

// get copies local line l of block blk into dst.
func (ax *axis) get(dst, blk []float64, l int) {
	if ax.step == 1 {
		copy(dst, ax.lineAt(blk, l, len(dst)))
		return
	}
	off := l * ax.stride
	for k := range dst {
		dst[k] = blk[off+k*ax.step]
	}
}

// set stores src as local line l of block blk.
func (ax *axis) set(blk []float64, l int, src []float64) {
	if ax.step == 1 {
		copy(ax.lineAt(blk, l, len(src)), src)
		return
	}
	off := l * ax.stride
	for k, x := range src {
		blk[off+k*ax.step] = x
	}
}

// checkIndex panics unless 0 <= i < n; what names the operation. The
// formatting lives in panicIndex so that the check itself inlines.
func checkIndex(what string, i, n int) {
	if i < 0 || i >= n {
		panicIndex(what, i, n)
	}
}

//go:noinline
func panicIndex(what string, i, n int) {
	panic(fmt.Sprintf("core: %s index %d out of [0,%d)", what, i, n))
}

// Layout names the three vector embeddings.
type Layout int

const (
	// Linear is the stand-alone load-balanced embedding: the vector is
	// dealt over all 2^d processors; the piece with coordinate c lives
	// on the processor whose address is the Gray code of c, so
	// consecutive pieces are cube neighbors.
	Linear Layout = iota
	// RowAligned vectors have the length of a matrix row (Cols) and
	// are distributed over the grid's column axis, on one grid row
	// (Home) or replicated on all grid rows.
	RowAligned
	// ColAligned vectors have the length of a matrix column (Rows) and
	// are distributed over the grid's row axis.
	ColAligned
)

// fields returns the field layout l's pieces are dealt over (its Map's
// coordinate field) and the field it is homed on or replicated across;
// Linear is dealt over the whole address and homed on the empty field.
// This is the one place a layout turns into address arithmetic.
func (l Layout) fields(g embed.Grid) (deal, home embed.Field) {
	switch l {
	case RowAligned:
		return g.Cols(), g.Rows()
	case ColAligned:
		return g.Rows(), g.Cols()
	default:
		return g.Cube(), embed.Field{}
	}
}

// String returns the layout name.
func (l Layout) String() string {
	switch l {
	case Linear:
		return "linear"
	case RowAligned:
		return "row-aligned"
	case ColAligned:
		return "col-aligned"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Vector is a dense vector distributed on the processor grid in one of
// the three embeddings.
type Vector struct {
	N      int
	G      embed.Grid
	Layout Layout
	Map    embed.Map1D
	// Replicated reports, for aligned layouts, whether every grid row
	// (column) holds a copy. Linear vectors are never replicated.
	Replicated bool
	// Home is the grid row (for RowAligned) or grid column (for
	// ColAligned) holding the data when not replicated.
	Home int

	// Storage follows the Matrix convention: host-created vectors hold
	// all pieces; SPMD-created temporaries hold only the creator's.
	vals    [][]float64 // indexed by processor address; nil in local mode
	local   []float64
	isLocal bool
}

// NewVector returns a zero vector of length n in the given layout.
// For aligned layouts home names the owning grid row/column; pass
// replicated=true for a copy on every grid row/column.
func NewVector(g embed.Grid, n int, layout Layout, kind embed.MapKind, home int, replicated bool) (*Vector, error) {
	v, err := newVectorShape(g, n, layout, kind, home, replicated)
	if err != nil {
		return nil, err
	}
	v.vals = make([][]float64, g.P())
	return v, nil
}

// newVectorShape validates and builds the vector header without any
// backing storage (see newMatrixShape).
func newVectorShape(g embed.Grid, n int, layout Layout, kind embed.MapKind, home int, replicated bool) (*Vector, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: invalid vector length %d", n)
	}
	if layout < Linear || layout > ColAligned {
		return nil, fmt.Errorf("core: unknown layout %v", layout)
	}
	if layout == Linear {
		home, replicated = 0, false
	}
	deal, hf := layout.fields(g)
	if home < 0 || home >= hf.Size() {
		return nil, fmt.Errorf("core: home %d of a %v vector out of [0,%d)", home, layout, hf.Size())
	}
	m, err := embed.NewMap1D(n, deal.K, kind)
	if err != nil {
		return nil, err
	}
	return &Vector{
		N: n, G: g, Layout: layout, Map: m, Replicated: replicated, Home: home,
	}, nil
}

// MustNewVector is NewVector for static arguments; panics on error.
func MustNewVector(g embed.Grid, n int, layout Layout, kind embed.MapKind, home int, replicated bool) *Vector {
	v, err := NewVector(g, n, layout, kind, home, replicated)
	if err != nil {
		panic(err)
	}
	return v
}

// L returns processor pid's local piece, materializing it on first
// use. As for Matrix.L, only pid's processor may call it for pid, and
// pid is ignored for SPMD-local temporaries.
func (v *Vector) L(pid int) []float64 {
	if v.isLocal {
		if v.local == nil {
			v.local = make([]float64, v.Map.B)
		}
		return v.local
	}
	if v.vals[pid] == nil {
		v.vals[pid] = make([]float64, v.Map.B)
	}
	return v.vals[pid]
}

// stored returns processor pid's piece without materializing it: nil
// if L has never been called for pid.
func (v *Vector) stored(pid int) []float64 {
	if v.isLocal {
		return v.local
	}
	return v.vals[pid]
}

// IsLocal reports whether this is an SPMD-local temporary handle.
func (v *Vector) IsLocal() bool { return v.isLocal }

// fields returns the field v's pieces are dealt over and the field it
// is homed on (see Layout.fields).
func (v *Vector) fields() (deal, home embed.Field) { return v.Layout.fields(v.G) }

// PieceCoord returns the Map coordinate of the piece stored at
// processor pid: the grid column for RowAligned vectors, the grid row
// for ColAligned, and the Gray decoding of the address for Linear.
func (v *Vector) PieceCoord(pid int) int {
	deal, _ := v.fields()
	return deal.Coord(pid)
}

// HoldsData reports whether processor pid holds live data of v (for
// non-replicated aligned vectors, only the home grid row/column does).
func (v *Vector) HoldsData(pid int) bool {
	_, home := v.fields()
	return v.Replicated || pid&home.Mask() == home.Place(v.Home)
}

// contributes reports whether processor pid speaks for its piece in a
// reduction over v: any holder of an unreplicated vector, the copy on
// home coordinate 0 of a replicated one (copies count once).
func (v *Vector) contributes(pid int) bool {
	return pid == v.holder(v.PieceCoord(pid), 0)
}

// SameShape reports whether w has identical length, layout and map.
func (v *Vector) SameShape(w *Vector) bool {
	return v.N == w.N && v.G == w.G && v.Layout == w.Layout && v.Map == w.Map
}

// TempMatrix creates an SPMD-local zero matrix: a per-processor handle
// holding only this processor's block. Every processor of the machine
// must create the temporary with identical arguments.
func (e *Env) TempMatrix(rows, cols int, rkind, ckind embed.MapKind) *Matrix {
	m, err := newMatrixShape(e.G, rows, cols, rkind, ckind)
	if err != nil {
		panic(err)
	}
	m.isLocal = true
	return m
}

// TempVector creates an SPMD-local zero vector (see TempMatrix).
func (e *Env) TempVector(n int, layout Layout, kind embed.MapKind, home int, replicated bool) *Vector {
	v, err := newVectorShape(e.G, n, layout, kind, home, replicated)
	if err != nil {
		panic(err)
	}
	v.isLocal = true
	return v
}
