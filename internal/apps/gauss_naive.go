package apps

import (
	"fmt"
	"math"

	"vmprim/internal/core"
)

// GaussKernelNaive solves the same augmented system as GaussKernel but
// moves every operand through the general router, element by element:
// processor 0 fetches the pivot column one element per message and
// rebroadcasts its decision as p separate messages; the pivot row and
// multiplier column are spread with one message per (element,
// destination). Arithmetic and pivot choices are identical to
// GaussKernel — only the communication differs — so the two produce
// the same answer while the naive version pays the uncombined-message
// costs the paper's comparison quantifies.
func GaussKernelNaive(e *core.Env, w *core.Matrix, xOut *core.Vector) error {
	n := w.Rows
	if w.Cols != n+1 {
		panic(fmt.Sprintf("apps: GaussKernelNaive needs an n x n+1 matrix, got %dx%d", w.Rows, w.Cols))
	}
	e.BeginSpan("gauss(naive)")
	defer e.EndSpan()
	pid := e.P.ID()
	blk := w.L(pid)
	b := w.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	rowBuf, colBuf := e.P.Scratch(w.CMap.B), e.P.Scratch(w.RMap.B)
	// Processor 0 alone reads a fetch list (naiveFetchElems), so it
	// alone builds one, once, with room for the longest column.
	var idx [][2]int
	if pid == 0 {
		idx = make([][2]int, 0, n)
	}

	for k := 0; k < n; k++ {
		// Pivot search on processor 0: fetch column k rows [k, n) one
		// element at a time, pick the max magnitude, announce it.
		if pid == 0 {
			idx = idx[:0]
			for i := k; i < n; i++ {
				idx = append(idx, [2]int{i, k})
			}
		}
		colVals := naiveFetchElems(e, w, idx)
		var ann []float64
		if pid == 0 {
			best, bestAbs := -1, -1.0
			for q, v := range colVals {
				if a := math.Abs(v); a > bestAbs {
					best, bestAbs = k+q, a
				}
			}
			ann = []float64{float64(best), bestAbs}
			e.P.Compute(len(colVals))
		}
		ann = naiveBcast(e, 0, ann)
		piv, mag := int(ann[0]), ann[1]
		if piv < 0 || mag <= pivotEps {
			return fmt.Errorf("apps: singular matrix at step %d", k)
		}
		naiveSwapRows(e, w, k, piv)

		// Spread the pivot row and the raw column k; every processor
		// derives its multipliers locally.
		prow := naiveSpread(e, w, true, k, k, n+1, rowBuf)
		ccol := naiveSpread(e, w, false, k, k+1, n, colBuf)
		pv := naiveFetchElems(e, w, [][2]int{{k, k}})
		var pivotWords []float64
		if pid == 0 {
			pivotWords = pv
		}
		pivotWords = naiveBcast(e, 0, pivotWords)
		inv := 1 / pivotWords[0]

		// Local rank-1 update, identical arithmetic to GaussKernel.
		count := 0
		for lr := 0; lr < w.RMap.B; lr++ {
			gi := w.RMap.GlobalOf(myRow, lr)
			if gi <= k || gi >= n {
				continue
			}
			mi := ccol[lr] * inv
			row := blk[lr*b : (lr+1)*b]
			for lc := range row {
				gj := w.CMap.GlobalOf(myCol, lc)
				if gj < k || gj > n {
					continue
				}
				row[lc] -= mi * prow[lc]
				count += 2
			}
		}
		e.P.Compute(count)
	}

	// Back substitution, processor 0 driving element fetches.
	for k := n - 1; k >= 0; k-- {
		vals := naiveFetchElems(e, w, [][2]int{{k, n}, {k, k}})
		var ann []float64
		if pid == 0 {
			ann = []float64{vals[0] / vals[1]}
		}
		ann = naiveBcast(e, 0, ann)
		xk := ann[0]
		e.SetVecElem(xOut, k, xk)
		if k == 0 {
			break
		}
		// Update the rhs of rows above: each owner of (i, k) routes the
		// value to the owner of (i, n), one message per element.
		ck := naiveSpread(e, w, false, k, 0, k, colBuf)
		count := 0
		for lr := 0; lr < w.RMap.B; lr++ {
			gi := w.RMap.GlobalOf(myRow, lr)
			if gi < 0 || gi >= k {
				continue
			}
			if w.CMap.CoordOf(n) != myCol {
				continue
			}
			lc := w.CMap.LocalOf(n)
			blk[lr*b+lc] -= ck[lr] * xk
			count += 2
		}
		e.P.Compute(count)
	}
	return nil
}
