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
// run, in which case each processor holds only its own block;
// LoadDense and LoadSlice stage dense data that way, for an operand
// read in that run alone, LoadDense from the column blocks it lies in
// ([A | b] from A and b); StoreDense lands a column window of one.
//
// An Env, and every SPMD-local temporary made inside a run (TempVector,
// TempMatrix, and the results of the primitives), is valid until the
// end of the Run or step scope that made it; a value that must outlive
// the Run is copied into a host-created container or a plain slice
// (StoreSlice) before the body returns. A step scope is a loop's way to
// reuse temporaries: m := e.Mark() at the top of a step and
// e.Release(m) at its end give back every temporary the step made, so
// the next step takes the same headers and storage again and a loop of
// any length holds one step's. A processor holds a few headers of each
// kind at once; a make past that panics (errSlabFull). A Matrix or
// Vector header is in one of three states:
//
//   - a host container holds every processor's piece or block;
//   - a slab-held temporary holds its processor's own, and comes from
//     the processor's run-scoped slab, its storage from the machine's
//     scratch arena (hypercube.Proc.Scratch), so a warm primitive call
//     allocates nothing;
//   - a spent header, which a Release or the machine's rewind after
//     every Run leaves in each slot the scope or Run took, holds
//     nothing: L and the host accessors refuse it by name until the
//     slot is handed out again.
//
// All inter-processor data motion
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
// it, is valid until the end of the Run or step scope that made it.
func NewEnv(p *hypercube.Proc, g embed.Grid) *Env {
	if g.D != p.Dim() {
		panic(fmt.Sprintf("core: grid dimension %d does not match machine dimension %d", g.D, p.Dim()))
	}
	s, _ := p.Local().(*runSlab)
	if s == nil {
		s = newRunSlab(p)
		p.SetLocal(s)
	}
	e := s.envs.next()
	*e = Env{P: p, G: g, slab: s}
	return e
}

// A Mark is a point in one processor's Run: the Envs and headers its
// slab has handed out and the scratch words it holds.
type Mark struct{ envs, vecs, mats, scratch int }

// Mark opens a step scope: it returns this processor's current point,
// for a Release at the end of the step. Scopes nest; a Release gives
// back the inner scopes' objects with its own.
func (e *Env) Mark() Mark {
	s := e.slab
	return Mark{s.envs.n, s.vecs.n, s.mats.n, e.P.ScratchMark()}
}

// Release closes the step scope m opened: every Env and temporary made
// since m is spent, and its slot and scratch words go to the next
// makes. All processors release the same scopes; what a loop keeps
// from a step lives in a container made before m. Releasing a mark an
// earlier Release passed panics.
func (e *Env) Release(m Mark) { e.slab.release(m) }

var errReleased = errors.New("core: Release of a scope already released")

// runSlab is one processor's store of the fixed-size objects a Run
// makes: its Envs and the headers of its SPMD-local temporaries. It is
// the processor's hypercube.RunLocal, so the machine releases it back
// to the start of the Run after every Run, as Release does a step; a
// header a release gives back is spent, the last of the three states of
// the package doc.
type runSlab struct {
	p    *hypercube.Proc
	envs slots[Env]
	vecs slots[Vector]
	mats slots[Matrix]
}

// newRunSlab returns p's empty slab, which holds at most 4 Envs, 12
// vector and 4 matrix headers at once: a few more than any driver of
// internal/apps holds (SolveCG's ten vectors, MatMul's three matrices),
// so only a loop that never releases its steps reaches a limit.
func newRunSlab(p *hypercube.Proc) *runSlab {
	return &runSlab{p: p, envs: slots[Env]{limit: 4}, vecs: slots[Vector]{limit: 12}, mats: slots[Matrix]{limit: 4}}
}

// release spends what was handed out since m and rewinds slots and scratch to m.
func (s *runSlab) release(m Mark) {
	if m.envs > s.envs.n || m.vecs > s.vecs.n || m.mats > s.mats.n {
		panic(errReleased)
	}
	for _, e := range s.envs.rewind(m.envs) {
		*e = Env{}
	}
	for _, v := range s.vecs.rewind(m.vecs) {
		v.local = nil
	}
	for _, a := range s.mats.rewind(m.mats) {
		a.local = nil
	}
	s.p.RewindScratch(m.scratch)
}

// EndRun releases everything the Run took.
func (s *runSlab) EndRun() { s.release(Mark{}) }

var errSlabFull = errors.New("core: more temporaries of one kind held at once than the run slab holds; release each step of a loop with Env.Mark and Env.Release")

// slots hands out *T in order; all grows to the most a Run has held at
// once, up to limit.
type slots[T any] struct {
	all      []*T
	n, limit int
}

// next returns the next unused object, allocating it only the first
// time a Run holds that many. Past the limit it panics with
// errSlabFull.
func (s *slots[T]) next() *T {
	if s.n == len(s.all) {
		if s.n == s.limit {
			panic(errSlabFull)
		}
		s.all = append(s.all, new(T))
	}
	s.n++
	return s.all[s.n-1]
}

// rewind makes the objects handed out past the first k available
// again and returns them, for the caller to reset: an Env to zero, a
// header to spent by dropping its storage, the one reference it holds.
func (s *slots[T]) rewind(k int) []*T {
	out := s.all[k:s.n]
	s.n = k
	return out
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

// storage is where a Matrix's blocks or a Vector's pieces live. A
// temporary stores only its creator's (local), so it costs O(m/p) per
// processor instead of O(p) slice headers. The fields tell the three
// states of the package doc apart: all is set for a host container
// alone, local for a slab-held temporary alone, and neither for a spent
// header.
type storage struct {
	all   [][]float64 // indexed by processor address; nil for a temporary
	local []float64
}

// errExpired is the panic of L on a spent header. It is an error value
// already, so L's inlined copies convert nothing.
var errExpired = errors.New("core: SPMD-local temporary used after the end of the Run or step scope that made it")

// get is L past a temporary's piece, kept out of L's line so that L
// stays small: a host container's n words for processor pid, made on
// first use. A temporary gets its piece when it is made, so a header
// without one is spent.
//
//go:noinline
func (s *storage) get(pid, n int) []float64 {
	if s.all == nil {
		panic(errExpired)
	}
	if s.all[pid] == nil {
		s.all[pid] = make([]float64, n)
	}
	return s.all[pid]
}

// IsLocal reports whether this is an SPMD-local temporary handle, which
// host accessors like ToDense refuse to read.
func (s *storage) IsLocal() bool { return s.all == nil }

// hostOnly is the guard of every host accessor: nil for a host
// container, errExpired for a spent header, and the accessor's own
// refusal, local, for a temporary.
func (s *storage) hostOnly(local error) error {
	switch {
	case s.all != nil:
		return nil
	case s.local == nil:
		return errExpired
	}
	return local
}

// Matrix is a dense matrix distributed over the processor grid. Local
// blocks are row-major with RMap.B local rows and CMap.B local
// columns; slots beyond the logical extent (padding) hold zero and are
// skipped by every operation.
type Matrix struct {
	// The record comes first, at offset zero, which keeps L's inlining
	// cost within the compiler's budget.
	storage
	Rows, Cols int
	G          embed.Grid
	RMap       embed.Map1D // rows over the 2^Dr grid rows
	CMap       embed.Map1D // cols over the 2^Dc grid cols
}

// NewMatrix returns a zero matrix of the given shape distributed on
// grid g with the given row and column maps.
func NewMatrix(g embed.Grid, rows, cols int, rkind, ckind embed.MapKind) (*Matrix, error) {
	m := new(Matrix)
	if err := m.setShape(g, rows, cols, rkind, ckind); err != nil {
		return nil, err
	}
	m.all = make([][]float64, g.P())
	m.carve()
	return m, nil
}

// setShape validates the shape and overwrites the whole header with
// it, leaving no backing storage: hosts attach the all-processor block
// table, SPMD-local temporaries the caller's own block.
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
				a.all[a.G.ProcAt(gr, gc)], buf = buf[:n:n], buf[n:]
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

// L returns processor pid's local block, materializing a host
// container's on first use. Only pid's own processor body (or host
// code outside a run) may call it for a given pid. For SPMD-local
// temporaries pid is ignored: the handle belongs to one processor.
func (a *Matrix) L(pid int) []float64 {
	if a.local != nil {
		return a.local
	}
	return a.get(pid, a.RMap.B*a.CMap.B)
}

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
	storage // first, as for Matrix

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
}

// NewVector returns a zero vector of length n in the given layout.
// For aligned layouts home names the owning grid row/column; pass
// replicated=true for a copy on every grid row/column.
func NewVector(g embed.Grid, n int, layout Layout, kind embed.MapKind, home int, replicated bool) (*Vector, error) {
	v := new(Vector)
	if err := v.setShape(g, n, layout, kind, home, replicated); err != nil {
		return nil, err
	}
	v.all = make([][]float64, g.P())
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

// L returns processor pid's local piece, materializing a host
// container's on first use. As for Matrix.L, only pid's processor may
// call it for pid, and pid is ignored for SPMD-local temporaries.
func (v *Vector) L(pid int) []float64 {
	if v.local != nil {
		return v.local
	}
	return v.get(pid, v.Map.B)
}

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
// valid until the end of the Run or step scope that made it.
func (e *Env) TempMatrix(rows, cols int, rkind, ckind embed.MapKind) *Matrix {
	m := e.slab.mats.next()
	if err := m.setShape(e.G, rows, cols, rkind, ckind); err != nil {
		panic(err)
	}
	m.local = e.P.Scratch(m.RMap.B * m.CMap.B)
	return m
}

// TempVector creates an SPMD-local zero vector (see TempMatrix), valid
// until the end of the Run or step scope that made it.
func (e *Env) TempVector(n int, layout Layout, kind embed.MapKind, home int, replicated bool) *Vector {
	v := e.slab.vecs.next()
	if err := v.setShape(e.G, n, layout, kind, home, replicated); err != nil {
		panic(err)
	}
	v.local = e.P.Scratch(v.Map.B)
	return v
}

// tempVector is TempVector for a shape already validated, a vector's or
// a matrix line's. It sets every field but the host table, which a slot
// the slab hands out, new or spent, has nil.
func (e *Env) tempVector(g embed.Grid, n int, layout Layout, m embed.Map1D, home int, replicated bool) *Vector {
	v := e.slab.vecs.next()
	v.N, v.G, v.Layout, v.Map, v.Home, v.Replicated = n, g, layout, m, home, replicated
	v.local = e.P.Scratch(m.B)
	return v
}
