package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// TestKernelTemporariesPerRun pins that the kernels, and LUFactor's
// loop, allocate their per-step temporaries once per run, not once per
// step: a run with four or eight times the steps may allocate at most
// one more object per processor than the short run. Allocating an
// extracted vector per step costs two objects per processor per step.
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
	// restorer returns a reset that puts w's blocks back as they are now.
	restorer := func(w *core.Matrix) func() {
		saved := make([][]float64, m.P())
		for pid := range saved {
			saved[pid] = slices.Clone(w.L(pid))
		}
		return func() {
			for pid, blk := range saved {
				copy(w.L(pid), blk)
			}
		}
	}
	gauss := func(n int) float64 {
		aug := randMat(n, n+1)
		for i := 0; i < n; i++ {
			aug.Set(i, i, aug.At(i, i)+float64(n)) // no pivot swaps
		}
		g := embed.SplitFor(d, n, n+1)
		w := fromDense(g, aug, embed.Cyclic)
		xOut := core.MustNewVector(g, n, core.Linear, embed.Block, 0, false)
		return allocsPerRun(g, restorer(w), func(e *core.Env) error { return GaussKernel(e, w, xOut) })
	}
	luFactor := func(n int) float64 {
		a := randMat(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // no pivot swaps
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := LUFactor(m, a, DefaultGaussOpts()); err != nil {
				t.Fatal(err)
			}
		})
	}
	// simplex stops Dantzig's rule after the given number of pivots on
	// the 5-variable Klee-Minty cube, which it solves in 31.
	const kmN = 5
	lpA, lpB, lpC := serial.NewMat(kmN, kmN), make([]float64, kmN), make([]float64, kmN)
	for i := 0; i < kmN; i++ {
		for j := 0; j < i; j++ {
			lpA.Set(i, j, float64(int(1)<<(i-j+1)))
		}
		lpA.Set(i, i, 1)
		lpB[i] = math.Pow(5, float64(i+1))
		lpC[i] = float64(int(1) << (kmN - 1 - i))
	}
	simplex := func(pivots int) float64 {
		tab, err := serial.NewTableau(lpC, lpA, lpB)
		if err != nil {
			t.Fatal(err)
		}
		g := embed.SplitFor(d, tab.R, tab.C)
		w := fromDense(g, tab, embed.Block)
		return allocsPerRun(g, restorer(w), func(e *core.Env) error {
			if st, _, iters, _ := SimplexKernel(e, w, len(lpC), pivots); st != serial.IterLimit || iters != pivots {
				return fmt.Errorf("simplex stopped %v after %d pivots, want the limit of %d", st, iters, pivots)
			}
			return nil
		})
	}

	slack := float64(m.P())
	for _, c := range []struct {
		name        string
		short, long float64
	}{
		{"MatMulKernel K=8 vs K=64", matmul(8), matmul(64)},
		{"GaussKernel n=8 vs n=32", gauss(8), gauss(32)},
		{"LUFactor n=8 vs n=32", luFactor(8), luFactor(32)},
		{"SimplexKernel 1 vs 8 pivots", simplex(1), simplex(8)},
	} {
		t.Logf("%s: %.0f vs %.0f objects per run", c.name, c.short, c.long)
		if c.long > c.short+slack {
			t.Errorf("%s: %.0f objects per run against %.0f: more than %.0f objects of per-step temporaries",
				c.name, c.long, c.short, slack)
		}
	}
}
