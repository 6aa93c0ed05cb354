package bench

import (
	"fmt"

	"vmprim/internal/apps"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// Figures F1–F3: the scaling and embedding-change series (printed as
// tables of the plotted points).

// F1Speedup measures strong scaling of the fused vector-matrix
// multiply at fixed problem size: speedup flattens as p lg p
// approaches m, the boundary of the paper's optimality regime.
func F1Speedup() (*Table, error) {
	const n = 64
	t := &Table{
		ID:      "F1",
		Title:   fmt.Sprintf("matvec strong scaling, fixed n=%d (m=%d)", n, n*n),
		Columns: []string{"p", "p*lg p", "T (us)", "speedup", "ideal"},
		Notes:   "near-linear speedup while p lg p << m, flattening as p lg p approaches m = 4096",
	}
	a := RandMat(900, n, n)
	x := RandVec(901, n)
	var t1 costmodel.Time
	for d := 0; d <= 8; d++ {
		m, err := hypercube.New(d, costmodel.CM2())
		if err != nil {
			return nil, err
		}
		defer m.Close()
		_, elapsed, _, err := apps.RunVecMat(m, a, x, apps.MatvecFused)
		if err != nil {
			return nil, err
		}
		if d == 0 {
			t1 = elapsed
		}
		p := 1 << d
		t.AddRow(p, p*d, float64(elapsed), float64(t1)/float64(elapsed), p)
	}
	return t, nil
}

// F2Efficiency measures the work-efficiency of the Reduce primitive as
// the grain m/p varies at fixed machine size: the processor-time
// product settles to a small constant multiple of serial once
// m/p >> lg p.
func F2Efficiency() (*Table, error) {
	const d = 8
	const cols = 512
	params := costmodel.CM2()
	m, err := hypercube.New(d, params)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "F2",
		Title:   fmt.Sprintf("Reduce(rows,+) work-efficiency vs grain, p=%d", m.P()),
		Columns: []string{"rows", "m/p", "T (us)", "pT/T1", "efficiency"},
		Notes:   "efficiency = T1/(p*T); climbs toward a constant as m/p grows past lg p = 8",
	}
	g, err := embed.NewGrid(d/2, d-d/2)
	if err != nil {
		return nil, err
	}
	for _, rows := range []int{16, 32, 128, 512, 2048} {
		dm := RandMat(1000+int64(rows), rows, cols)
		a, err := core.FromDense(g, dm, embed.Block, embed.Block)
		if err != nil {
			return nil, err
		}
		elapsed, err := timedRun(m, g, func(e *core.Env) { e.ReduceRows(a, core.OpSum, true) })
		if err != nil {
			return nil, err
		}
		mElems := rows * cols
		t1 := params.FlopCost(mElems)
		p := float64(m.P())
		ratio := p * float64(elapsed) / float64(t1)
		t.AddRow(rows, mElems/m.P(), float64(elapsed), ratio, 1/ratio)
	}
	return t, nil
}

// F3Embedding measures the cost of the embedding changes a primitive
// may imply — vector realignment and matrix transposition — against
// the cost of the matvec that typically follows them.
func F3Embedding() (*Table, error) {
	const d = 8
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "F3",
		Title:   fmt.Sprintf("embedding-change costs, p=%d (simulated us)", m.P()),
		Columns: []string{"n", "realign row->linear", "realign row->col", "transpose nxn", "matvec (fused)"},
		Notes:   "embedding changes ride the router with per-pair message combining; vector realignments cost a few matvecs, while the transpose moves all m elements through lg p routing phases and scales accordingly",
	}
	for _, n := range []int{128, 256, 512, 1024} {
		g := embed.SplitFor(d, n, n)
		dm := RandMat(1100+int64(n), n, n)
		a, err := core.FromDense(g, dm, embed.Block, embed.Block)
		if err != nil {
			return nil, err
		}
		xv, err := core.VectorFromSlice(g, RandVec(1200, n), core.RowAligned, embed.Block, 0, false)
		if err != nil {
			return nil, err
		}
		tLin, err := timedRun(m, g, func(e *core.Env) { e.ToLinear(xv) })
		if err != nil {
			return nil, err
		}
		tCol, err := timedRun(m, g, func(e *core.Env) {
			e.Realign(xv, core.ColAligned, embed.Block, 0, false)
		})
		if err != nil {
			return nil, err
		}
		tTrans, err := timedRun(m, g, func(e *core.Env) { e.Transpose(a) })
		if err != nil {
			return nil, err
		}
		x := RandVec(1201, n)
		_, tMv, _, err := apps.RunVecMat(m, dm, x, apps.MatvecFused)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, float64(tLin), float64(tCol), float64(tTrans), float64(tMv))
	}
	return t, nil
}
