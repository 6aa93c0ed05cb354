// Power method: the dominant eigenvalue and eigenvector of a symmetric
// positive-definite matrix by repeated distributed vector-matrix
// multiplication. Each iteration composes the primitives — the fused
// Distribute/multiply/Reduce matvec, a Reduce for the norm, an
// elementwise scale, and a Realign (the embedding change a primitive
// may imply: y comes back row-aligned, the next multiply needs it
// col-aligned).
package main

import (
	"fmt"
	"log"
	"math"

	"vmprim"
)

func main() {
	const n = 64
	const iterations = 40

	// A symmetric positive-definite matrix with a known dominant
	// direction: A = I*2 + u u^T / n scaled up, plus a mild off-diagonal
	// coupling.
	dm := vmprim.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u := math.Sin(float64(i+1) * 0.17)
			v := math.Sin(float64(j+1) * 0.17)
			dm.Set(i, j, 8*u*v/float64(n))
			if i == j {
				dm.Set(i, j, dm.At(i, j)+2)
			}
		}
	}

	m := vmprim.NewMachine(6, vmprim.CM2())
	g := vmprim.SplitFor(m.Dim(), n, n)
	a, err := vmprim.FromDense(g, dm, vmprim.Block, vmprim.Block)
	if err != nil {
		log.Fatal(err)
	}

	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1
	}
	xv, err := vmprim.VectorFromSlice(g, x0, vmprim.ColAligned, vmprim.Block, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	eigvec, err := vmprim.NewVector(g, n, vmprim.ColAligned, vmprim.Block, 0, false)
	if err != nil {
		log.Fatal(err)
	}

	var lambda float64
	if _, err := m.Run(func(p *vmprim.Proc) {
		e := vmprim.NewEnv(p, g)
		x := xv
		var est float64
		for it := 0; it < iterations; it++ {
			// Each iteration's vectors live in its step scope; the
			// iterate it carries to the next lands in eigvec.
			step := e.Mark()
			// y = x*A (A symmetric, so this is also A*x).
			y := vmprim.VecMatKernel(e, a, x, vmprim.MatvecFused)
			// lambda estimate: ||y||_inf via Reduce, then normalize.
			absMax := e.ReduceVec(mapAbs(e, y), vmprim.OpMax)
			est = absMax
			inv := 1 / absMax
			e.MapVec(y, func(_ int, v float64) float64 { return v * inv }, 1)
			// Embedding change: the result is row-aligned, the next
			// multiply wants it col-aligned.
			e.StoreVec(eigvec, e.Realign(y, vmprim.ColAligned, vmprim.Block, 0, false))
			e.Release(step)
			x = eigvec
		}
		if p.ID() == 0 {
			lambda = est
		}
	}); err != nil {
		log.Fatal(err)
	}

	// Serial cross-check: one more multiply on the host.
	xs := eigvec.ToSlice()
	ys := vmprim.SerialVecMatMul(xs, dm)
	num, den := 0.0, 0.0
	for i := range xs {
		num += xs[i] * ys[i]
		den += xs[i] * xs[i]
	}
	rayleigh := num / den

	fmt.Printf("power method on a %dx%d SPD matrix, %d processors, %d iterations\n",
		n, n, m.P(), iterations)
	fmt.Printf("  dominant eigenvalue (power estimate):   %.6f\n", lambda)
	fmt.Printf("  dominant eigenvalue (serial Rayleigh):  %.6f\n", rayleigh)
	fmt.Printf("  simulated machine time: %.0f us (%.1f us/iteration)\n",
		float64(m.Elapsed()), float64(m.Elapsed())/iterations)
	if math.Abs(lambda-rayleigh) > 1e-6*math.Abs(rayleigh) {
		log.Fatalf("estimates disagree: %v vs %v", lambda, rayleigh)
	}
}

// mapAbs returns a copy of v with absolute values (an elementwise
// primitive application; the copy keeps the iteration's y intact).
func mapAbs(e *vmprim.Env, v *vmprim.Vector) *vmprim.Vector {
	w := e.CopyVec(v)
	e.MapVec(w, func(_ int, x float64) float64 { return math.Abs(x) }, 1)
	return w
}
