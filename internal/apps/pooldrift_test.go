package apps

import (
	"math/rand"
	"testing"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// TestFusedMatvecPoolDrift is core.TestPoolDrift for the fused
// matrix-vector kernels: once a long-lived machine is warm, every
// pooled buffer a Run takes comes off a free stack. The kernels used
// to keep the all-reduced piece, so each Run took one buffer per
// processor out of the pool for good and the next Run missed on it.
func TestFusedMatvecPoolDrift(t *testing.T) {
	const d, n = 6, 64
	rng := rand.New(rand.NewSource(46))
	dense := serial.NewMat(n, n)
	for i := range dense.A {
		dense.A[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	g := embed.SplitFor(d, n, n)
	a, err := core.FromDense(g, dense, embed.Block, embed.Block)
	if err != nil {
		t.Fatal(err)
	}
	vector := func(layout core.Layout) *core.Vector {
		v, err := core.VectorFromSlice(g, x, layout, embed.Block, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	xc, xr := vector(core.ColAligned), vector(core.RowAligned)
	for _, tc := range []struct {
		name string
		body func(e *core.Env)
	}{
		{"VecMatKernel/fused", func(e *core.Env) { VecMatKernel(e, a, xc, MatvecFused) }},
		{"MatVecKernel", func(e *core.Env) { MatVecKernel(e, a, xr) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := hypercube.MustNew(d, costmodel.CM2())
			defer m.Close()
			run := func(times int) {
				for i := 0; i < times; i++ {
					if _, err := m.Run(func(p *hypercube.Proc) { tc.body(core.NewEnv(p, g)) }); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(5)
			warm := m.Metrics().Snapshot()
			run(20)
			last := m.Metrics().Snapshot()
			delta := func(name string) float64 {
				now, _ := last.Value(name)
				then, _ := warm.Value(name)
				return now - then
			}
			gets, hits := delta("vmprim_pool_gets_total"), delta("vmprim_pool_hits_total")
			if gets == 0 || hits != gets {
				t.Errorf("last 20 runs: %v pool gets, %v hits; a warm machine must not allocate pooled buffers", gets, hits)
			}
		})
	}
}
