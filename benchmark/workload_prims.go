package main

import (
	"fmt"
	"math"

	"vmprim/internal/bench"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// primsInst is the prims workload: the paper's primitives at steady
// state, six separate Machine.Run calls per op on one warm d=8 CM2
// machine, n=512 block/block, recorders disarmed.
type primsInst struct {
	m     *hypercube.Machine
	calls []primCall
	// The pivot search's result, written by processor 0 alone, and the
	// serial answer it is held to.
	gotMax, wantMax float64
	gotIdx, wantIdx int
}

type primCall struct {
	name string
	body func(*hypercube.Proc)
}

const (
	primsDim = 8
	primsN   = 512
)

func setupPrims(seed int64) (instance, error) {
	m, err := hypercube.New(primsDim, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	n, row, col := primsN, primsN/2, primsN/2
	g := embed.SplitFor(primsDim, n, n)
	dense := bench.RandMat(seed*1000+1, n, n)
	x := bench.RandVec(seed*1000+2, n)
	a, err := core.FromDense(g, dense, embed.Block, embed.Block)
	if err != nil {
		m.Close()
		return nil, err
	}
	xv, err := core.VectorFromSlice(g, x, core.RowAligned, embed.Block, 0, false)
	if err != nil {
		m.Close()
		return nil, err
	}
	w := &primsInst{m: m, wantIdx: -1}
	// InsertRow puts x into row `row` on every op, so the column the
	// pivot search scans holds x[col] there from the first op on.
	for i := 0; i < n; i++ {
		v := math.Abs(dense.At(i, col))
		if i == row {
			v = math.Abs(x[col])
		}
		if w.wantIdx < 0 || v > w.wantMax {
			w.wantMax, w.wantIdx = v, i
		}
	}
	spmd := func(f func(e *core.Env)) func(*hypercube.Proc) {
		return func(p *hypercube.Proc) { f(core.NewEnv(p, g)) }
	}
	w.calls = []primCall{
		{"core.extractrow", spmd(func(e *core.Env) { e.ExtractRow(a, row, true) })},
		{"core.insertrow", spmd(func(e *core.Env) { e.InsertRow(a, xv, row) })},
		{"core.distribute", spmd(func(e *core.Env) { e.Distribute(xv) })},
		{"core.spreadrows", spmd(func(e *core.Env) { e.SpreadRows(xv, n, embed.Block) })},
		{"core.reducerows", spmd(func(e *core.Env) { e.ReduceRows(a, core.OpSum, true) })},
		{"core.reducecolloc", spmd(func(e *core.Env) {
			v, i := e.ReduceColLoc(a, col, 0, n, core.LocMaxAbs)
			if e.P.ID() == 0 {
				w.gotMax, w.gotIdx = v, i
			}
		})},
	}
	return w, nil
}

func (w *primsInst) cycle(c *client) error {
	for _, call := range w.calls {
		if err := c.run(call.name, w.m, call.body); err != nil {
			return err
		}
	}
	if w.gotIdx != w.wantIdx || !closeTo(w.gotMax, w.wantMax) {
		return fmt.Errorf("core.reducecolloc found %g at row %d, serial reference %g at row %d",
			w.gotMax, w.gotIdx, w.wantMax, w.wantIdx)
	}
	return nil
}

func (w *primsInst) close() { w.m.Close() }

func (w *primsInst) counters() (map[string]float64, error) {
	snap := w.m.Metrics().Snapshot()
	out := map[string]float64{}
	for _, name := range []string{
		"vmprim_pool_gets_total", "vmprim_pool_hits_total",
		"vmprim_sched_recv_parks_total", "vmprim_messages_total",
	} {
		out[name], _ = snap.Value(name)
	}
	return out, nil
}

func (w *primsInst) layerMetrics(delta map[string]float64, _ spanSummary, out map[string]float64) error {
	out["hypercube.pool_hit_ratio"] = ratio(delta["vmprim_pool_hits_total"], delta["vmprim_pool_gets_total"])
	out["hypercube.recv_parks_per_msg"] = ratio(delta["vmprim_sched_recv_parks_total"], delta["vmprim_messages_total"])
	return nil
}
