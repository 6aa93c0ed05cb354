package apps

import (
	"vmprim/internal/core"
	"vmprim/internal/serial"
)

// SimplexKernelNaive runs the same tableau simplex as SimplexKernel
// with identical pivot rules and per-element arithmetic, but with all
// communication through the general router: processor 0 fetches the
// objective row and the ratio-test columns element by element and
// rebroadcasts each decision as p separate messages; the pivot row and
// entering column are spread one message per (element, destination).
func SimplexKernelNaive(e *core.Env, t *core.Matrix, nVars, maxIter int) (serial.LPStatus, float64, int, []float64) {
	e.BeginSpan("simplex(naive)")
	defer e.EndSpan()
	m := t.Rows - 1
	rhs := t.Cols - 1
	pid := e.P.ID()
	blk := t.L(pid)
	b := t.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	rowBuf, colBuf := e.P.Scratch(t.CMap.B), e.P.Scratch(t.RMap.B)
	basis := newBasis(e, m, nVars)
	// fetchScalar reads one tableau element on processor 0 and
	// rebroadcasts it naively.
	fetchScalar := func(i, j int) float64 {
		vals := naiveFetchElems(e, t, [][2]int{{i, j}})
		var words []float64
		if pid == 0 {
			words = vals
		}
		return naiveBcast(e, 0, words)[0]
	}
	// Processor 0 alone reads a fetch list (naiveFetchElems), so it
	// alone builds one, once, with room for the longest.
	var idx [][2]int
	if pid == 0 {
		idx = make([][2]int, 0, max(rhs, 2*m))
	}
	iters := 0
	for {
		// Each iteration's fetched values and announcements are
		// scratch of the step, so the kernel's scratch stays flat.
		step := e.Mark()
		// Entering variable on processor 0.
		if pid == 0 {
			idx = idx[:0]
			for j := 0; j < rhs; j++ {
				idx = append(idx, [2]int{m, j})
			}
		}
		objRow := naiveFetchElems(e, t, idx)
		var ann []float64
		if pid == 0 {
			jc, best := -1, -simplexEps
			for j, v := range objRow {
				if v < best {
					jc, best = j, v
				}
			}
			ann = e.P.Scratch(1)
			ann[0] = float64(jc)
			e.P.Compute(rhs)
		}
		jc := int(naiveBcast(e, 0, ann)[0])
		if jc < 0 {
			return serial.Optimal, fetchScalar(m, rhs), iters, basis
		}
		if iters >= maxIter {
			return serial.IterLimit, fetchScalar(m, rhs), iters, basis
		}
		// Ratio test on processor 0.
		if pid == 0 {
			idx = idx[:0]
			for i := 0; i < m; i++ {
				idx = append(idx, [2]int{i, jc})
			}
			for i := 0; i < m; i++ {
				idx = append(idx, [2]int{i, rhs})
			}
		}
		vals := naiveFetchElems(e, t, idx)
		if pid == 0 {
			ir, bestRatio := -1, 0.0
			for i := 0; i < m; i++ {
				aij := vals[i]
				if aij <= simplexEps {
					continue
				}
				ratio := vals[m+i] / aij
				if ir < 0 || ratio < bestRatio {
					ir, bestRatio = i, ratio
				}
			}
			ann[0] = float64(ir)
			e.P.Compute(2 * m)
		}
		ir := int(naiveBcast(e, 0, ann)[0])
		if ir < 0 {
			return serial.Unbounded, fetchScalar(m, rhs), iters, basis
		}
		// Pivot: spread the raw pivot row and entering column, fetch
		// the pivot element, update locally with the same arithmetic
		// as SimplexKernel/serial.Pivot.
		pivot := fetchScalar(ir, jc)
		inv := 1 / pivot
		prow := naiveSpread(e, t, true, ir, 0, rhs+1, rowBuf)
		fcol := naiveSpread(e, t, false, jc, 0, m+1, colBuf)
		count := 0
		for lr := 0; lr < t.RMap.B; lr++ {
			gi := t.RMap.GlobalOf(myRow, lr)
			if gi < 0 {
				continue
			}
			row := blk[lr*b : (lr+1)*b]
			if gi == ir {
				for lc := range row {
					if t.CMap.GlobalOf(myCol, lc) < 0 {
						continue
					}
					row[lc] = prow[lc] * inv
					count++
				}
				continue
			}
			f := fcol[lr]
			for lc := range row {
				if t.CMap.GlobalOf(myCol, lc) < 0 {
					continue
				}
				row[lc] -= f * (prow[lc] * inv)
				count += 2
			}
		}
		e.P.Compute(count)
		basis[ir] = float64(jc)
		iters++
		e.Release(step)
	}
}
