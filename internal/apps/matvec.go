// Package apps implements the three numerical algorithms the SPAA 1989
// paper uses to illustrate the four vector-matrix primitives — a
// vector-matrix multiply, a Gaussian-elimination routine, and a
// simplex algorithm — each in a primitive-based form and in the
// "naive" form (per-element access through the general router) that
// the paper's order-of-magnitude comparison is against.
//
// SPMD kernels take a *core.Env and distributed operands and run
// inside Machine.Run; the exported Solve*/Run* drivers wrap a single
// timed SPMD run, returning both the answer and the simulated elapsed
// time. Data distribution and result collection happen inside that
// Run and cost no simulated time: a driver stages its operands on each
// processor (core.Env.LoadDense, LoadSlice) and lands its result in
// the value it returns (core.Env.StoreDense, StoreSlice), so it
// allocates little beyond that result: the Gauss drivers stage [A | b]
// from A and b and land X from the eliminated [A | X]. Only a value
// that outlives the Run lives in a host container (core.FromDense):
// LU's factors, which serve every later Solve.
package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/router"
	"vmprim/internal/serial"
)

// MatvecVariant selects a vector-matrix multiply implementation.
type MatvecVariant int

const (
	// MatvecPrimitive is the literal primitive composition of the
	// paper: Distribute x across the rows as a matrix, elementwise
	// multiply, Reduce the rows.
	MatvecPrimitive MatvecVariant = iota
	// MatvecFused distributes x and fuses the multiply into the local
	// reduction pass (the optimized form a library would ship): one
	// Distribute, one local loop, one Reduce.
	MatvecFused
	// MatvecNaive fetches every x element through the general router,
	// element by element, and routes every partial product to the
	// owner of its output element: no message combining anywhere.
	MatvecNaive
)

// String returns the variant name.
func (v MatvecVariant) String() string {
	switch v {
	case MatvecPrimitive:
		return "primitive"
	case MatvecFused:
		return "fused"
	case MatvecNaive:
		return "naive"
	default:
		return fmt.Sprintf("MatvecVariant(%d)", int(v))
	}
}

// VecMatKernel computes y = x*A inside an SPMD body. x must be
// col-aligned (length A.Rows); the result is row-aligned (length
// A.Cols), replicated across grid rows.
func VecMatKernel(e *core.Env, a *core.Matrix, x *core.Vector, variant MatvecVariant) *core.Vector {
	if x.Layout != core.ColAligned || x.N != a.Rows || x.Map != a.RMap {
		panic("apps: VecMatKernel needs a col-aligned x matching A's rows")
	}
	switch variant {
	case MatvecPrimitive:
		return vecMatPrimitive(e, a, x)
	case MatvecFused:
		return vecMatFused(e, a, x)
	case MatvecNaive:
		return vecMatNaive(e, a, x)
	default:
		panic("apps: unknown matvec variant")
	}
}

// vecMatPrimitive is the paper's composition, written exactly as a
// user of the four primitives would: X <- Distribute(x); P <- X .* A;
// y <- Reduce(P, rows, +).
func vecMatPrimitive(e *core.Env, a *core.Matrix, x *core.Vector) *core.Vector {
	e.BeginSpan("matvec(primitive)")
	defer e.EndSpan()
	xs := e.SpreadCols(x, a.Cols, a.CMap.Kind) // Distribute
	e.ZipMatrix(xs, a, func(xi, aij float64) float64 { return xi * aij }, 1)
	return e.ReduceRows(xs, core.OpSum, true) // Reduce
}

// vecMatFused distributes x and fuses multiply into the local
// reduction: the m/p-element local pass touches A once and allocates
// nothing matrix-shaped.
func vecMatFused(e *core.Env, a *core.Matrix, x *core.Vector) *core.Vector {
	e.BeginSpan("matvec(fused)")
	defer e.EndSpan()
	pid := e.P.ID()
	xp := x.L(pid)
	if !x.Replicated {
		xp = e.DistributePiece(x)
	}
	blk := a.L(pid)
	b := a.CMap.B
	piece := e.P.GetBuf(b)
	clear(piece)
	myRow := e.GridRow()
	count := 0
	e.BeginSpan("local-mac")
	for lr := 0; lr < a.RMap.B; lr++ {
		if a.RMap.GlobalOf(myRow, lr) < 0 {
			continue
		}
		xi := xp[lr]
		row := blk[lr*b : (lr+1)*b]
		for lc, aij := range row {
			piece[lc] += xi * aij
		}
		count += 2 * b
	}
	e.P.Compute(count)
	e.EndSpan()
	if !x.Replicated {
		e.P.Recycle(xp)
	}
	// All-reduce the partial sums down the rows; every grid row gets y.
	out := e.TempVector(a.Cols, core.RowAligned, a.CMap.Kind, 0, true)
	sum := e.AllReduceRowsPiece(piece, core.OpSum)
	copy(out.L(pid), sum)
	e.P.Recycle(sum)
	e.P.Recycle(piece)
	return out
}

// RunVecMat is the host driver: it stages A and x on machine m inside
// one Run of the chosen variant and returns y, the simulated elapsed
// time and the run statistics.
func RunVecMat(m *hypercube.Machine, a *serial.Mat, x []float64, variant MatvecVariant) ([]float64, costmodel.Time, hypercube.Stats, error) {
	if len(x) != a.R {
		return nil, 0, hypercube.Stats{}, fmt.Errorf("apps: x length %d, want %d", len(x), a.R)
	}
	g := embed.SplitFor(m.Dim(), a.R, a.C)
	y := make([]float64, a.C)
	elapsed, err := m.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		da := e.LoadDense(embed.Block, embed.Block, a)
		dx := e.LoadSlice(x, core.ColAligned, embed.Block, 0, false)
		e.StoreSlice(y, VecMatKernel(e, da, dx, variant))
	})
	if err != nil {
		return nil, 0, hypercube.Stats{}, err
	}
	return y, elapsed, m.LastStats(), nil
}

// vecMatNaive computes y = x*A with no structured communication at
// all: every local element's x operand is fetched through the router
// as its own message, and every partial product is routed to the
// output owner as its own message. This is the straightforward
// "global address space" code the paper's order-of-magnitude
// comparison measures against.
func vecMatNaive(e *core.Env, a *core.Matrix, x *core.Vector) *core.Vector {
	e.BeginSpan("matvec(naive)")
	defer e.EndSpan()
	pid := e.P.ID()
	g := e.G
	myRow, myCol := e.GridRow(), e.GridCol()
	blk := a.L(pid)
	b := a.CMap.B

	// Fetch x_i for every distinct local row, one request per row
	// (the naive code does not even combine requests for the same i
	// across its local columns' worth of work — but one per (i) per
	// processor is already the granularity a per-element program
	// generates, since the elements of a local row share i).
	e.BeginSpan("fetch-x")
	rows := a.RMap.B
	want := router.NewBatch(e.P, rows, 0)
	for lr := 0; lr < a.RMap.B; lr++ {
		if gi := a.RMap.GlobalOf(myRow, lr); gi >= 0 {
			want.Ask(g.ProcAt(x.Map.CoordOf(gi), x.Home), x.Map.LocalOf(gi))
		}
	}
	xp := x.L(pid)
	got := want.Request(e.P, e.NextTag2(), func(l int) []float64 {
		return xp[l : l+1] // Request copies it
	})
	// x_i lands at its request's number, which is its row's rank here.
	xs := e.P.GetBuf(rows)
	for q, w, ok := got.Next(); ok; q, w, ok = got.Next() {
		xs[q] = w[0]
	}
	e.EndSpan()

	// Compute partial products and route each to the owner of y_j in
	// the vector's own linear embedding (spread over the whole
	// machine, as a naive global-address-space program would keep it),
	// one message per local element.
	out := e.TempVector(a.Cols, core.Linear, a.CMap.Kind, 0, false)
	e.BeginSpan("route-products")
	// Per local column j: the owner of y_j, then its offset there, the
	// key its products travel under.
	nr, nc := a.RMap.ValidCount(myRow), a.CMap.ValidCount(myCol)
	mark := e.P.ScratchMark()
	to := e.P.Scratch(2 * nc)
	for lc := 0; lc < nc; lc++ {
		gj := a.CMap.GlobalOf(myCol, lc)
		to[2*lc], to[2*lc+1] = float64(out.OwnerProcOf(gj)), float64(out.Map.LocalOf(gj))
	}
	parts := router.NewBatch(e.P, rows*b, rows*b)
	for lr, xi := range xs[:nr] {
		for lc, aij := range blk[lr*b : lr*b+nc] {
			parts.Add(int(to[2*lc]), int(to[2*lc+1]), 1)[0] = xi * aij
		}
	}
	e.P.RewindScratch(mark)
	e.P.Recycle(xs)
	e.P.Compute(nr * nc)
	arrived := parts.Route(e.P, e.NextTag())
	op := out.L(pid)
	n := 0
	for k, w, ok := arrived.Next(); ok; k, w, ok = arrived.Next() {
		op[k] += w[0]
		n++
	}
	e.P.Compute(n)
	e.EndSpan()
	return out
}
