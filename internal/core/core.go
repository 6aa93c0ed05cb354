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
// ExtractColInto, TransposeInto).
//
// An Env, and every SPMD-local temporary made inside a run (TempVector,
// TempMatrix, and the results of the primitives), is valid until the
// end of the Run that made it. Their headers come from a run-scoped
// slab on each processor that the machine rewinds after every Run, and
// the storage of those headers from the machine's scratch arena
// (hypercube.Proc.Scratch), rewound with it, so a warm primitive call
// allocates nothing; a value that must outlive the Run is copied into
// a host-created container or a plain slice before the body returns. A
// temporary used after its Run is refused by name (L and the host
// accessors panic), until its slot is handed out again. The slab holds
// a few headers of each kind; a body that makes more gets plain
// allocations, so a long loop of temporaries keeps at most that few
// alive, however many steps it takes. All inter-processor data motion
// happens through the collectives of internal/collective over cube-edge
// links, and every operation charges the cost model for its
// communication and arithmetic, so Machine.Elapsed after a run is the
// simulated time of the whole distributed computation.
package core

import (
	"errors"
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

	tag  int
	slab *runSlab
}

// NewEnv returns the environment for proc p on grid g. The grid must
// exactly cover p's machine. The Env, and every temporary made through
// it, is valid until the end of the Run that made it.
func NewEnv(p *hypercube.Proc, g embed.Grid) *Env {
	if g.D != p.Dim() {
		panic(fmt.Sprintf("core: grid dimension %d does not match machine dimension %d", g.D, p.Dim()))
	}
	s, _ := p.Local().(*runSlab)
	if s == nil {
		s = newRunSlab()
		p.SetLocal(s)
	}
	e, _ := s.envs.next()
	*e = Env{P: p, G: g, slab: s}
	return e
}

// runSlab is one processor's store of the fixed-size objects a Run
// makes: its Envs and the headers of its SPMD-local temporaries. It is
// the processor's hypercube.RunLocal, so the machine rewinds it after
// every Run. A held header's piece or block comes from the processor's
// region of the machine's scratch arena (see tempStorage), reachable
// from the header until EndRun drops it; the machine rewinds the
// arena after every Run too and holds it only weakly between Runs, so
// it retains no run's data that the collector cannot take.
type runSlab struct {
	envs slots[Env]
	vecs slots[Vector]
	mats slots[Matrix]
}

// errExpired is the panic of L on a temporary whose Run has ended. It
// is an error value already, so L's inlined copies convert nothing.
var errExpired = errors.New("core: SPMD-local temporary used after the end of the Run that made it")

// tempStorage returns n zeroed words for an SPMD-local temporary's own
// piece or block: from the scratch arena of p, the processor whose slab
// holds the header, or a plain allocation for a header past the slab's
// limit (p nil). An expired temporary is refused by name.
func tempStorage(p *hypercube.Proc, expired bool, n int) []float64 {
	if expired {
		panic(errExpired)
	}
	if p != nil {
		return p.Scratch(n)
	}
	return make([]float64, n)
}

// newRunSlab returns an empty slab holding at most 4 Envs, 4 vector
// headers and 1 matrix header, which covers every primitive's result;
// a Run that makes more gets plain allocations for the rest, headers
// and storage, which the collector reclaims as before. A held header
// keeps its storage, in the scratch arena, until EndRun, so the limits
// bound what a body that loops over temporaries, dropping each, keeps
// alive to four pieces and one block per processor, however long it
// loops, and bound the arena's regions to as much. The benchmark's
// bodies take at most 4 vectors and 1 matrix. Rewound headers are
// expired: L and the host accessors refuse them by name.
func newRunSlab() *runSlab {
	return &runSlab{envs: slots[Env]{limit: 4}, vecs: slots[Vector]{limit: 4}, mats: slots[Matrix]{limit: 1}}
}

// EndRun resets every object handed out since the last rewind,
// dropping each header's storage, and rewinds the slab.
func (s *runSlab) EndRun() {
	s.envs.rewind(Env{})
	s.vecs.rewind(Vector{isLocal: true, expired: true})
	s.mats.rewind(Matrix{isLocal: true, expired: true})
}

// slots hands out *T in order; all grows to the most a Run has taken,
// up to limit.
type slots[T any] struct {
	all      []*T
	n, limit int
}

// next returns the next unused object, allocating it only the first
// time a Run takes that many, and past the limit every time; held
// reports whether the slab holds it, which past the limit it does not.
func (s *slots[T]) next() (t *T, held bool) {
	if s.n < len(s.all) {
		s.n++
		return s.all[s.n-1], true
	}
	t = new(T)
	if s.n < s.limit {
		s.all = append(s.all, t)
		s.n++
		return t, true
	}
	return t, false
}

// rewind resets the objects handed out to spent, dropping what they
// referenced, and makes them available again.
func (s *slots[T]) rewind(spent T) {
	for _, t := range s.all[:s.n] {
		*t = spent
	}
	s.n = 0
}

// NextTag returns a fresh protocol tag. Primitives call it once per
// collective phase; SPMD symmetry keeps all processors' sequences
// identical. It panics if a collective on this processor has already
// used the tag in this Run: its caller reserved fewer tags than the
// collective took.
func (e *Env) NextTag() int {
	e.tag++
	if e.tag <= e.P.TagMark() {
		e.tagUsed()
	}
	return e.tag
}

// tagUsed panics with the reused tag and the collective that took it.
// It formats the message only on this path, out of NextTag's line, so
// that NextTag inlines.
func (e *Env) tagUsed() {
	panic(fmt.Sprintf("core: tag %d already used by %s", e.tag, e.P.TagOwner()))
}

// NextTag2 reserves two consecutive tags — the shape round-trip
// protocols like Batch.Request and scatter/all-gather broadcasts need
// — and returns the first. The second lies above the first, so only
// the first needs the check.
func (e *Env) NextTag2() int {
	t := e.NextTag()
	e.tag++
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
	expired bool // a temporary whose Run has ended; it holds nothing
	// arena is the processor whose scratch arena backs local: set for a
	// temporary whose header the slab holds, nil for host containers and
	// temporaries past the slab's limit, which allocate.
	arena *hypercube.Proc
}

// NewMatrix returns a zero matrix of the given shape distributed on
// grid g with the given row and column maps.
func NewMatrix(g embed.Grid, rows, cols int, rkind, ckind embed.MapKind) (*Matrix, error) {
	m := new(Matrix)
	if err := m.setShape(g, rows, cols, rkind, ckind); err != nil {
		return nil, err
	}
	m.blocks = make([][]float64, g.P())
	m.carve()
	return m, nil
}

// setShape validates the shape and overwrites the whole header with
// it, leaving no backing storage: hosts attach the all-processor block
// table, SPMD-local temporaries stay storage-free until L materializes
// the caller's own block.
func (a *Matrix) setShape(g embed.Grid, rows, cols int, rkind, ckind embed.MapKind) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("core: invalid shape %dx%d", rows, cols)
	}
	rmap, err := embed.NewMap1D(rows, g.Dr, rkind)
	if err != nil {
		return err
	}
	cmap, err := embed.NewMap1D(cols, g.Dc, ckind)
	if err != nil {
		return err
	}
	*a = Matrix{Rows: rows, Cols: cols, G: g, RMap: rmap, CMap: cmap}
	return nil
}

// carve backs every block that holds data with one slice of a single
// array, capacity-clipped so that no block can grow into the next;
// blocks of padding alone stay nil until L materializes them.
func (a *Matrix) carve() {
	n := a.RMap.B * a.CMap.B
	buf := make([]float64, dataCoords(a.RMap)*dataCoords(a.CMap)*n)
	for gr := 0; gr < a.G.PRows(); gr++ {
		for gc := 0; gc < a.G.PCols(); gc++ {
			if a.RMap.ValidCount(gr) > 0 && a.CMap.ValidCount(gc) > 0 {
				a.blocks[a.G.ProcAt(gr, gc)], buf = buf[:n:n], buf[n:]
			}
		}
	}
}

// dataCoords returns how many coordinates of m hold an element.
func dataCoords(m embed.Map1D) int {
	k := 0
	for c := 0; c < m.Coords(); c++ {
		if m.ValidCount(c) > 0 {
			k++
		}
	}
	return k
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
	if a.local != nil {
		return a.local
	}
	return a.block(pid)
}

// block is L past a temporary's materialized block (see Vector.piece).
func (a *Matrix) block(pid int) []float64 {
	if !a.isLocal {
		if a.blocks[pid] == nil {
			a.blocks[pid] = make([]float64, a.RMap.B*a.CMap.B)
		}
		return a.blocks[pid]
	}
	a.local = tempStorage(a.arena, a.expired, a.RMap.B*a.CMap.B)
	return a.local
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
	// Home is the grid row (for RowAligned) or grid column (for
	// ColAligned) holding the data when not replicated.
	Home int
	// Replicated reports, for aligned layouts, whether every grid row
	// (column) holds a copy. Linear vectors are never replicated.
	Replicated bool

	// Storage follows the Matrix convention: host-created vectors hold
	// all pieces; SPMD-created temporaries hold only the creator's. The
	// two flags share Replicated's word.
	isLocal bool
	expired bool        // as for Matrix
	vals    [][]float64 // indexed by processor address; nil in local mode
	local   []float64
	arena   *hypercube.Proc // as for Matrix
}

// NewVector returns a zero vector of length n in the given layout.
// For aligned layouts home names the owning grid row/column; pass
// replicated=true for a copy on every grid row/column.
func NewVector(g embed.Grid, n int, layout Layout, kind embed.MapKind, home int, replicated bool) (*Vector, error) {
	v := new(Vector)
	if err := v.setShape(g, n, layout, kind, home, replicated); err != nil {
		return nil, err
	}
	v.vals = make([][]float64, g.P())
	return v, nil
}

// setShape validates the shape and overwrites the whole header with
// it, leaving no backing storage (see Matrix.setShape).
func (v *Vector) setShape(g embed.Grid, n int, layout Layout, kind embed.MapKind, home int, replicated bool) error {
	if n < 0 {
		return fmt.Errorf("core: invalid vector length %d", n)
	}
	if layout < Linear || layout > ColAligned {
		return fmt.Errorf("core: unknown layout %v", layout)
	}
	if layout == Linear {
		home, replicated = 0, false
	}
	deal, hf := layout.fields(g)
	if home < 0 || home >= hf.Size() {
		return fmt.Errorf("core: home %d of a %v vector out of [0,%d)", home, layout, hf.Size())
	}
	m, err := embed.NewMap1D(n, deal.K, kind)
	if err != nil {
		return err
	}
	*v = Vector{N: n, G: g, Layout: layout, Map: m, Replicated: replicated, Home: home}
	return nil
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
	if v.local != nil {
		return v.local
	}
	return v.piece(pid)
}

// piece is L past a temporary's materialized piece, out of L's line so
// that L inlines: a host vector's piece pid, made on first use, or a
// temporary's own piece, given its storage.
func (v *Vector) piece(pid int) []float64 {
	if !v.isLocal {
		if v.vals[pid] == nil {
			v.vals[pid] = make([]float64, v.Map.B)
		}
		return v.vals[pid]
	}
	v.local = tempStorage(v.arena, v.expired, v.Map.B)
	return v.local
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
// must create the temporary with identical arguments. The matrix is
// valid until the end of the Run that made it.
func (e *Env) TempMatrix(rows, cols int, rkind, ckind embed.MapKind) *Matrix {
	m, held := e.slab.mats.next()
	if err := m.setShape(e.G, rows, cols, rkind, ckind); err != nil {
		panic(err)
	}
	m.isLocal = true
	if held {
		m.arena = e.P
	}
	return m
}

// TempVector creates an SPMD-local zero vector (see TempMatrix), valid
// until the end of the Run that made it.
func (e *Env) TempVector(n int, layout Layout, kind embed.MapKind, home int, replicated bool) *Vector {
	v, held := e.slab.vecs.next()
	if err := v.setShape(e.G, n, layout, kind, home, replicated); err != nil {
		panic(err)
	}
	v.isLocal = true
	if held {
		v.arena = e.P
	}
	return v
}
