package core

import (
	"math/rand"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/testutil"
)

// TestPoolDrift pins what the machine-wide pool is for: a long-lived
// machine retains no more after 350 runs of a primitive than after 50,
// and its steady state draws every pooled buffer from a free stack —
// under one-to-many and many-to-one traffic (the first four, which
// leaked a buffer per sink per run and missed on a third of their gets
// while the pools were per-processor only) as under pairwise-symmetric
// traffic.
func TestPoolDrift(t *testing.T) {
	const d, n = 6, 128
	g := embed.SplitFor(d, n, n)
	cases := []struct {
		name string
		body func(e *Env, a *Matrix)
	}{
		{"ExtractRowReplicated", func(e *Env, a *Matrix) { e.ExtractRow(a, n/2, true) }},
		{"Distribute", func(e *Env, a *Matrix) { e.Distribute(e.ExtractRow(a, 0, false)) }},
		{"SpreadRows", func(e *Env, a *Matrix) { e.SpreadRows(e.ExtractRow(a, 0, false), n, embed.Block) }},
		// Row 0 lives on grid row 0, row n/2 does not: the piece crosses
		// the row axis one way only.
		{"InsertRowOffHome", func(e *Env, a *Matrix) { e.InsertRow(a, e.ExtractRow(a, 0, false), n/2) }},
		{"ReduceRows", func(e *Env, a *Matrix) { e.ReduceRows(a, OpSum, true) }},
		{"ReduceColLoc", func(e *Env, a *Matrix) { e.ReduceColLoc(a, n/2, 0, n, LocMaxAbs) }},
		{"Transpose", func(e *Env, a *Matrix) { e.Transpose(a) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := hypercube.MustNew(d, costmodel.CM2())
			defer m.Close()
			a, err := FromDense(g, randDense(rand.New(rand.NewSource(1)), n, n), embed.Block, embed.Block)
			if err != nil {
				t.Fatal(err)
			}
			run := func(times int) {
				for i := 0; i < times; i++ {
					if _, err := m.Run(func(p *hypercube.Proc) { tc.body(NewEnv(p, g), a) }); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(50)
			before := testutil.LiveHeap()
			run(200)
			warm := m.Metrics().Snapshot()
			run(100)
			after := testutil.LiveHeap()
			if per := (float64(after) - float64(before)) / 300; per >= 1024 {
				t.Errorf("live heap grew %.0f bytes per run over 300 runs, want < 1024", per)
			}
			last := m.Metrics().Snapshot()
			delta := func(name string) float64 {
				now, _ := last.Value(name)
				then, _ := warm.Value(name)
				return now - then
			}
			// (Transpose rides the router, which keeps out of the pool.)
			gets, hits := delta("vmprim_pool_gets_total"), delta("vmprim_pool_hits_total")
			if hits != gets {
				t.Errorf("last 100 runs: %v pool gets, %v hits; the steady state must not allocate pooled buffers", gets, hits)
			}
		})
	}
}
