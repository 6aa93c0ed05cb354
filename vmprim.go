// Package vmprim is a Go reproduction of "Four Vector-Matrix
// Primitives" (Agrawal, Blelloch, Krawitz, Phillips — SPAA 1989): four
// APL-like primitives for dense matrices and vectors — Extract,
// Insert, Distribute and Reduce — implemented over load-balanced
// embeddings on a simulated Boolean-cube (hypercube) multiprocessor,
// together with the three application algorithms the paper builds from
// them: vector-matrix multiply, Gaussian elimination, and simplex.
//
// This package is the public facade: it re-exports the machine model,
// the embeddings, the distributed matrix/vector types, the primitives
// and the application drivers from the internal packages, so a
// downstream user needs a single import. See README.md for a tour and
// DESIGN.md for the system inventory.
//
// A minimal program:
//
//	m := vmprim.NewMachine(4, vmprim.CM2())          // 16 processors
//	g := vmprim.SplitFor(m.Dim(), 8, 8)              // 4x4 grid
//	a, _ := vmprim.FromDense(g, dense, vmprim.Block, vmprim.Block)
//	out, _ := vmprim.NewVector(g, 8, vmprim.RowAligned, vmprim.Block, 0, true)
//	m.Run(func(p *vmprim.Proc) {
//	    e := vmprim.NewEnv(p, g)
//	    e.StoreVec(out, e.ReduceRows(a, vmprim.OpSum, true)) // column sums
//	})
//	sums := out.ToSlice()
//	elapsed := m.Elapsed() // simulated machine time
package vmprim

import (
	"vmprim/internal/apps"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/flightrec"
	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
	"vmprim/internal/obs"
	"vmprim/internal/serial"
)

// Machine model (internal/hypercube, internal/costmodel).
type (
	// Machine is a simulated Boolean-cube multiprocessor: one
	// coroutine per processor, all resumed by the goroutine that calls
	// Run, message rings along cube edges, and virtual clocks driven by
	// Params. It is not safe for concurrent use.
	Machine = hypercube.Machine
	// Proc is one processor's handle inside a Machine.Run body.
	Proc = hypercube.Proc
	// Stats aggregates message/word/flop counters over one run.
	Stats = hypercube.Stats
	// Params is the architectural cost-parameter set.
	Params = costmodel.Params
	// Time is simulated machine time in microseconds.
	Time = costmodel.Time
)

// Virtual-time profiler (internal/obs). Switch it on per machine with
// Machine.EnableProfile(true) before a run; Machine.Profile() then
// returns the run's Profile — a span tree with per-span virtual-time
// buckets — renderable as a text tree (WriteTree), profile JSON
// (WriteJSON) or Chrome trace-event JSON (ChromeTrace). Inside an SPMD
// body, Env.BeginSpan/EndSpan add application-level spans.
type (
	// Profile is one profiled run: span tree, per-processor clock
	// buckets and link loads.
	Profile = obs.Profile
	// Span is one node of a Profile's tree.
	Span = obs.Span
	// Buckets splits a processor's virtual clock into compute,
	// start-up, transfer and idle time.
	Buckets = obs.Buckets
	// LinkLoad is the word volume of one directed cube link.
	LinkLoad = obs.LinkLoad
)

// Critical-path tracer (internal/obs, internal/hypercube). Switch it
// on per machine with Machine.EnableCritPath(true) before a run;
// Machine.CritPath() then returns the run's longest causal chain —
// the sequence of compute, start-up, transfer and idle stretches the
// makespan was actually waiting on — with its weights attributed to
// profiler spans and a cost-model conformance table comparing each
// span's measured time against the Params prediction. The document is
// deterministic (bit-identical under every schedule) and renderable as
// text (WriteText) or JSON (WriteJSON); Check verifies that the path
// weights sum exactly to the makespan.
type (
	// CritPath is one run's critical path.
	CritPath = obs.CritPath
	// PathSpan is one profiler span's share of the critical path.
	PathSpan = obs.PathSpan
	// PathSegment is one causal segment of the path's chain.
	PathSegment = obs.PathSegment
	// ConformanceEntry compares one span's measured per-operation time
	// against the cost model's prediction.
	ConformanceEntry = obs.ConformanceEntry
)

// Post-mortems, flight recorder and metrics (internal/hypercube,
// internal/flightrec, internal/metrics). A failed run's error wraps a
// *RunError whose Report is the structured post-mortem: per-processor
// blocked state, recent flight-recorder events, open span stacks and
// link occupancy, renderable as text (WriteText) or JSON (WriteJSON).
// Machine.Metrics() is the machine's metrics registry; its Snapshot
// serializes as JSON (WriteJSON) or Prometheus text (WritePrometheus).
type (
	// RunError is the error a failed Machine.Run returns, carrying the
	// post-mortem Report. Extract it with errors.As.
	RunError = hypercube.RunError
	// PostMortemReport is the structured post-mortem of a failed run.
	PostMortemReport = flightrec.Report
	// ProcPostMortem is one processor's state within a post-mortem.
	ProcPostMortem = flightrec.ProcState
	// LinkPostMortem is one occupied link within a post-mortem.
	LinkPostMortem = flightrec.LinkState
	// FlightEvent is one flight-recorder ring entry.
	FlightEvent = flightrec.Event
	// MetricsRegistry is a machine's named counter/gauge/histogram set.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a MetricsRegistry.
	MetricsSnapshot = metrics.Snapshot
)

// Live event streaming and machine pooling (internal/obs,
// internal/hypercube) — the pieces cmd/vmprimd's serving plane is
// built from, exported for embedders running their own.
// Machine.EnableStream attaches a StreamSink that receives
// span-open/span-close, progress and link-congestion events as a
// profiled run executes; a MachinePool keeps warm machines across
// runs, keyed by dimension. The cost parameters are given to each
// Acquire instead: they price a run but shape none of the state a warm
// machine keeps, so one pooled cube serves CM-2 and iPSC runs alike.
type (
	// StreamEvent is one live observability event from a running
	// machine; Kind is one of the Ev* constants.
	StreamEvent = obs.StreamEvent
	// StreamSink consumes StreamEvents; it is called on the goroutine
	// that called Run and must return quickly.
	StreamSink = obs.StreamSink
	// MachinePool is a bounded LRU of idle machines.
	MachinePool = hypercube.MachinePool
	// PoolStats summarizes a pool's hit/miss/eviction traffic.
	PoolStats = hypercube.PoolStats
)

// Stream event kinds.
const (
	EvSpanOpen  = obs.EvSpanOpen
	EvSpanClose = obs.EvSpanClose
	EvProgress  = obs.EvProgress
	EvLink      = obs.EvLink
)

// NewMachinePool returns a pool retaining up to capacity idle
// machines; Acquire either reuses a pooled machine of the requested
// dimension, under the requested cost parameters, or builds one.
func NewMachinePool(capacity int) *MachinePool { return hypercube.NewMachinePool(capacity) }

// NewMachine returns a 2^dim-processor machine; it panics on invalid
// arguments (use hypercube.New for the error-returning form).
func NewMachine(dim int, params Params) *Machine { return hypercube.MustNew(dim, params) }

// CM2 returns Connection Machine-like cost parameters, the default
// experiment machine.
func CM2() Params { return costmodel.CM2() }

// IPSC returns Intel iPSC-like cost parameters (very high start-up).
func IPSC() Params { return costmodel.IPSC() }

// Ideal returns unit-cost parameters for asymptotic studies.
func Ideal() Params { return costmodel.Ideal() }

// Embeddings (internal/embed).
type (
	// Grid is the 2^dr x 2^dc processor grid carved from the cube.
	Grid = embed.Grid
	// MapKind selects the consecutive (Block) or Cyclic element map.
	MapKind = embed.MapKind
)

// Element map kinds.
const (
	Block  = embed.Block
	Cyclic = embed.Cyclic
)

// NewGrid returns a grid with dr row bits and dc column bits.
func NewGrid(dr, dc int) (Grid, error) { return embed.NewGrid(dr, dc) }

// SplitFor chooses a balanced grid for an rows x cols matrix on a
// dim-dimensional cube.
func SplitFor(dim, rows, cols int) Grid { return embed.SplitFor(dim, rows, cols) }

// Distributed data and the four primitives (internal/core).
type (
	// Matrix is a dense matrix distributed over the grid.
	Matrix = core.Matrix
	// Vector is a dense vector in one of the three embeddings.
	Vector = core.Vector
	// Layout names the vector embeddings.
	Layout = core.Layout
	// Env is one processor's handle to the primitives inside an SPMD
	// body; its methods are the library's operation set. The Env, and
	// every temporary made through it (Env.TempVector, Env.TempMatrix
	// and the vectors and matrices the primitives return), is valid
	// until the end of the Run that made it: copy what must outlive the
	// Run into a host-created container (Env.StoreVec, Env.StoreMatrix).
	Env = core.Env
	// Op names the plain reduction operators.
	Op = core.Op
	// LocOp names the value-with-location reduction operators.
	LocOp = core.LocOp
)

// Vector layouts.
const (
	Linear     = core.Linear
	RowAligned = core.RowAligned
	ColAligned = core.ColAligned
)

// Reduction operators.
const (
	OpSum = core.OpSum
	OpMax = core.OpMax
	OpMin = core.OpMin

	LocMax    = core.LocMax
	LocMin    = core.LocMin
	LocMaxAbs = core.LocMaxAbs
)

// NewEnv returns the SPMD environment for proc p on grid g, valid
// until the end of the Run that made it. Making one allocates nothing
// once the processor's run-scoped slab has grown to the body's needs
// (a body that makes more than a few Envs gets the rest from the heap).
func NewEnv(p *Proc, g Grid) *Env { return core.NewEnv(p, g) }

// NewMatrix returns a zero distributed matrix.
func NewMatrix(g Grid, rows, cols int, rkind, ckind MapKind) (*Matrix, error) {
	return core.NewMatrix(g, rows, cols, rkind, ckind)
}

// NewVector returns a zero distributed vector.
func NewVector(g Grid, n int, layout Layout, kind MapKind, home int, replicated bool) (*Vector, error) {
	return core.NewVector(g, n, layout, kind, home, replicated)
}

// FromDense distributes a dense matrix onto the grid (host-side).
func FromDense(g Grid, dm *Dense, rkind, ckind MapKind) (*Matrix, error) {
	return core.FromDense(g, dm, rkind, ckind)
}

// VectorFromSlice distributes a dense vector (host-side).
func VectorFromSlice(g Grid, x []float64, layout Layout, kind MapKind, home int, replicated bool) (*Vector, error) {
	return core.VectorFromSlice(g, x, layout, kind, home, replicated)
}

// Serial reference types (internal/serial) — the dense host-side data
// the distributed containers load from and compare against.
type (
	// Dense is a host-side dense row-major matrix.
	Dense = serial.Mat
	// LPResult is the outcome of a simplex solve.
	LPResult = serial.LPResult
	// LPStatus is the solve status.
	LPStatus = serial.LPStatus
)

// LP statuses.
const (
	Optimal   = serial.Optimal
	Unbounded = serial.Unbounded
	IterLimit = serial.IterLimit
)

// NewDense returns a zero r x c dense matrix.
func NewDense(r, c int) *Dense { return serial.NewMat(r, c) }

// DenseFromRows builds a dense matrix from row slices.
func DenseFromRows(rows [][]float64) *Dense { return serial.FromRows(rows) }

// Applications (internal/apps).
type (
	// MatvecVariant selects a vector-matrix multiply implementation.
	MatvecVariant = apps.MatvecVariant
	// GaussOpts configures a Gaussian-elimination solve.
	GaussOpts = apps.GaussOpts
	// SimplexOpts configures a simplex solve.
	SimplexOpts = apps.SimplexOpts
)

// Matvec variants.
const (
	MatvecPrimitive = apps.MatvecPrimitive
	MatvecFused     = apps.MatvecFused
	MatvecNaive     = apps.MatvecNaive
)

// RunVecMat computes y = x*A on machine m with the chosen variant and
// returns y, the simulated elapsed time and the run statistics.
func RunVecMat(m *Machine, a *Dense, x []float64, variant MatvecVariant) ([]float64, Time, Stats, error) {
	return apps.RunVecMat(m, a, x, variant)
}

// VecMatKernel is the SPMD form of the vector-matrix multiply, for
// composition inside a caller's own Machine.Run body. x must be
// col-aligned; the structured variants return a replicated row-aligned
// result.
func VecMatKernel(e *Env, a *Matrix, x *Vector, variant MatvecVariant) *Vector {
	return apps.VecMatKernel(e, a, x, variant)
}

// DefaultGaussOpts returns cyclic embeddings with primitives on.
func DefaultGaussOpts() GaussOpts { return apps.DefaultGaussOpts() }

// SolveGauss solves A x = b by distributed Gaussian elimination with
// partial pivoting, returning x and the simulated elapsed time.
func SolveGauss(m *Machine, a *Dense, b []float64, opts GaussOpts) ([]float64, Time, error) {
	return apps.SolveGauss(m, a, b, opts)
}

// DefaultSimplexOpts returns cyclic embeddings and a generous pivot
// cap.
func DefaultSimplexOpts() SimplexOpts { return apps.DefaultSimplexOpts() }

// SolveSimplex maximizes c^T x subject to A x <= b, x >= 0 (b >= 0)
// with the distributed tableau simplex, returning the result and the
// simulated elapsed time.
func SolveSimplex(m *Machine, c []float64, a *Dense, b []float64, opts SimplexOpts) (LPResult, Time, error) {
	return apps.SolveSimplex(m, c, a, b, opts)
}

// Serial reference algorithms, exposed for baseline comparisons.

// SerialGaussSolve solves A x = b on one processor.
func SerialGaussSolve(a *Dense, b []float64) ([]float64, error) { return serial.GaussSolve(a, b) }

// SerialSolveLP solves the LP on one processor with the same pivot
// rules as the distributed simplex.
func SerialSolveLP(c []float64, a *Dense, b []float64, maxIter int) (LPResult, error) {
	return serial.SolveLP(c, a, b, maxIter)
}

// SerialVecMatMul computes y = x*A on one processor.
func SerialVecMatMul(x []float64, a *Dense) []float64 { return serial.VecMatMul(x, a) }

// Extensions beyond the paper's three applications: multiple
// right-hand sides, matrix-matrix multiply, and an iterative solver,
// all composed from the same primitives.

type (
	// CGOpts configures a conjugate-gradient solve.
	CGOpts = apps.CGOpts
	// CGResult reports a conjugate-gradient solve.
	CGResult = apps.CGResult
)

// SolveGaussMany solves A X = B for a block of right-hand sides by
// distributed elimination, returning X and the simulated time.
func SolveGaussMany(m *Machine, a, b *Dense, opts GaussOpts) (*Dense, Time, error) {
	return apps.SolveGaussMany(m, a, b, opts)
}

// MatMul multiplies two dense matrices with the distributed
// outer-product algorithm (ExtractCol + ExtractRow + rank-1 update per
// inner index).
func MatMul(m *Machine, a, b *Dense, kind MapKind) (*Dense, Time, error) {
	return apps.MatMul(m, a, b, kind)
}

// SolveCG solves a symmetric positive-definite system by conjugate
// gradient with a Jacobi preconditioner, composed from the primitives.
func SolveCG(m *Machine, a *Dense, b []float64, opts CGOpts) (CGResult, Time, error) {
	return apps.SolveCG(m, a, b, opts)
}

// MatVecKernel computes y = A*x inside an SPMD body (x row-aligned,
// result col-aligned replicated) — the dual orientation to
// VecMatKernel.
func MatVecKernel(e *Env, a *Matrix, x *Vector) *Vector {
	return apps.MatVecKernel(e, a, x)
}

// Determinant computes det(A) by distributed elimination with partial
// pivoting.
func Determinant(m *Machine, a *Dense, opts GaussOpts) (float64, Time, error) {
	return apps.Determinant(m, a, opts)
}

// SerialSolveLPBland is the serial simplex under Bland's anti-cycling
// rule, the reference for SimplexOpts.Bland.
func SerialSolveLPBland(c []float64, a *Dense, b []float64, maxIter int) (LPResult, error) {
	return serial.SolveLPBland(c, a, b, maxIter)
}

// LU is a reusable distributed factorization P A = L U: factor once,
// solve many right-hand sides at O(n^2/p) each.
type LU = apps.LU

// LUFactor factors a on machine m with partial pivoting.
func LUFactor(m *Machine, a *Dense, opts GaussOpts) (*LU, error) {
	return apps.LUFactor(m, a, opts)
}

// SolveTridiag solves a tridiagonal system (a[i]x[i-1] + b[i]x[i] +
// c[i]x[i+1] = d[i]) by distributed odd-even cyclic reduction in
// O(lg n) parallel steps.
func SolveTridiag(m *Machine, a, b, c, d []float64) ([]float64, Time, error) {
	return apps.SolveTridiag(m, a, b, c, d)
}

// SerialSolveTridiag is the Thomas-algorithm reference.
func SerialSolveTridiag(a, b, c, d []float64) ([]float64, error) {
	return serial.SolveTridiag(a, b, c, d)
}

// TridiagSystem is one independent tridiagonal system for the batch
// solver.
type TridiagSystem = apps.TridiagSystem

// SolveTridiagBatch solves many independent tridiagonal systems by
// whole-system partitioning (local Thomas solves) — the embarrassingly
// parallel workload of Alternating Direction Methods.
func SolveTridiagBatch(m *Machine, systems []TridiagSystem) ([][]float64, Time, error) {
	return apps.SolveTridiagBatch(m, systems)
}

// Inverse computes A^-1 by distributed elimination on A X = I.
func Inverse(m *Machine, a *Dense, opts GaussOpts) (*Dense, Time, error) {
	return apps.Inverse(m, a, opts)
}
