package apps

import (
	"math/rand"
	"slices"
	"testing"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// TestKernelTemporariesPerRun pins that the kernels allocate their
// per-step temporaries once per run, not once per step: a run with
// eight times the steps may allocate at most one more object per
// processor than the short run. Allocating an extracted vector per
// step costs two objects per processor per step.
func TestKernelTemporariesPerRun(t *testing.T) {
	const d = 4
	m := hypercube.MustNew(d, costmodel.CM2())
	defer m.Close()
	rng := rand.New(rand.NewSource(32))
	randMat := func(r, c int) *serial.Mat {
		dm := serial.NewMat(r, c)
		for i := range dm.A {
			dm.A[i] = rng.NormFloat64()
		}
		return dm
	}
	fromDense := func(g embed.Grid, dm *serial.Mat, kind embed.MapKind) *core.Matrix {
		a, err := core.FromDense(g, dm, kind, kind)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// allocsPerRun counts the objects one Run of body allocates, after
	// reset has restored its inputs.
	allocsPerRun := func(g embed.Grid, reset func(), body func(e *core.Env) error) float64 {
		return testing.AllocsPerRun(3, func() {
			reset()
			if _, err := m.Run(func(p *hypercube.Proc) {
				if err := body(core.NewEnv(p, g)); err != nil {
					panic(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}

	matmul := func(k int) float64 {
		const n = 16
		g := embed.SplitFor(d, n, n)
		a := fromDense(g, randMat(n, k), embed.Block)
		b := fromDense(g, randMat(k, n), embed.Block)
		c := core.MustNewMatrix(g, n, n, embed.Block, embed.Block)
		return allocsPerRun(g, func() {}, func(e *core.Env) error {
			MatMulKernel(e, c, a, b)
			return nil
		})
	}
	gauss := func(n int) float64 {
		aug := randMat(n, n+1)
		for i := 0; i < n; i++ {
			aug.Set(i, i, aug.At(i, i)+float64(n)) // no pivot swaps
		}
		g := embed.SplitFor(d, n, n+1)
		w := fromDense(g, aug, embed.Cyclic)
		saved := make([][]float64, m.P())
		for pid := range saved {
			saved[pid] = slices.Clone(w.L(pid))
		}
		xOut := core.MustNewVector(g, n, core.Linear, embed.Block, 0, false)
		return allocsPerRun(g, func() {
			for pid, blk := range saved {
				copy(w.L(pid), blk)
			}
		}, func(e *core.Env) error { return GaussKernel(e, w, xOut) })
	}

	slack := float64(m.P())
	for _, c := range []struct {
		name        string
		short, long float64
	}{
		{"MatMulKernel K=8 vs K=64", matmul(8), matmul(64)},
		{"GaussKernel n=8 vs n=32", gauss(8), gauss(32)},
	} {
		t.Logf("%s: %.0f vs %.0f objects per run", c.name, c.short, c.long)
		if c.long > c.short+slack {
			t.Errorf("%s: %.0f objects per run against %.0f: more than %.0f objects of per-step temporaries",
				c.name, c.long, c.short, slack)
		}
	}
}
