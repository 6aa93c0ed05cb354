package apps

import (
	"math"
	"math/rand"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
	"vmprim/internal/testutil"
)

// TestRunVecMatStagesItsOperands: RunVecMat stages A and x inside its
// one Run, so a warm call at the apps benchmark's shape (d = 8, n =
// 512) allocates y and a few words, not a host copy of A's 2 MB. The
// primitive variant's spread block comes from the run slab and the
// scratch arena beside the staged A, too. Measured: 2.2 MB per call
// with A and x in host containers, 4.1 KB staged. The guard allows 5%
// of A.
func TestRunVecMatStagesItsOperands(t *testing.T) {
	const d, n = 8, 512
	m := hypercube.MustNew(d, costmodel.CM2())
	defer m.Close()
	rng := rand.New(rand.NewSource(55))
	a := serial.NewMat(n, n)
	for i := range a.A {
		a.A[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	limit := 0.05 * float64(8*n*n)
	for _, variant := range []MatvecVariant{MatvecPrimitive, MatvecFused} {
		per := testutil.BytesPerRun(2, 3, func() {
			if _, _, _, err := RunVecMat(m, a, x, variant); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("RunVecMat %v d=%d n=%d: %.1f KB per call", variant, d, n, per/1024)
		if per > limit {
			t.Errorf("RunVecMat %v allocates %.0f KB per call, want <= %.0f KB", variant, per/1024, limit/1024)
		}
	}
}

// TestDriversStageTheirOperands: a warm call of each driver below
// allocates the value it returns and, beyond it, at most an allowance
// fixed from a measurement: none of them builds a host container for
// an operand it reads, or a result it writes, in its one Run, and none
// makes per-step or per-level scratch on the heap. Measured bytes
// beyond the returned value:
//   - SolveSimplex, d = 8, 32 x 48, 5 pivots: 21,968 (the host
//     tableau, 21 KB; the basis is in each processor's scratch);
//   - MatMul, d = 8, 64 x 64: 112;
//   - LU.Solve, d = 6, n = 64: 592 (the back-substitution's broadcast
//     is recycled);
//   - SolveTridiag, d = 4, n = 100: 51,504, most of it the
//     router's wires (the answers are read by request number into
//     slices sized once per call, the bands and the answer buffer are
//     in each processor's scratch);
//   - SolveGauss, d = 6, n = 64: 128 (A and b are staged where they
//     lie; a host copy of [A | b] took 41,120);
//   - SolveGaussMany, d = 6, 8 x 8 with 3 right-hand sides: 144 (X
//     lands straight from the trailing columns; host copies of [A | B]
//     and of the eliminated [A | X] took 1,632).
func TestDriversStageTheirOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	randMat := func(r, c int) *serial.Mat {
		dm := serial.NewMat(r, c)
		for i := range dm.A {
			dm.A[i] = rng.NormFloat64()
		}
		return dm
	}
	randVec := func(n int) []float64 { return randMat(1, n).A }
	machine := func(d int) *hypercube.Machine {
		m := hypercube.MustNew(d, costmodel.CM2())
		t.Cleanup(m.Close)
		return m
	}
	d8, d6, d4 := machine(8), machine(6), machine(4)

	const lpRows, lpCols = 32, 48
	lpA := randMat(lpRows, lpCols)
	for i := range lpA.A {
		lpA.A[i] = math.Abs(lpA.A[i]) + 0.1
	}
	lpB, lpC := randVec(lpRows), randVec(lpCols)
	for i := range lpB {
		lpB[i] = math.Abs(lpB[i]) + 1
	}
	lpOpts := DefaultSimplexOpts()
	lpOpts.MaxIter = 5
	mmA, mmB := randMat(64, 64), randMat(64, 64)
	const luN = 64
	luA := randMat(luN, luN)
	for i := 0; i < luN; i++ {
		luA.Set(i, i, luA.At(i, i)+luN)
	}
	lu, err := LUFactor(d6, luA, DefaultGaussOpts())
	if err != nil {
		t.Fatal(err)
	}
	luB := randVec(luN)
	const trN = 100
	trA, trB, trC, trD := randVec(trN), randVec(trN), randVec(trN), randVec(trN)
	for i := range trB {
		trB[i] = 4
	}
	const gN = 64
	gA, gB := randMat(gN, gN), randVec(gN)
	for i := 0; i < gN; i++ {
		gA.Set(i, i, gA.At(i, i)+gN)
	}
	gmA, gmB := randMat(8, 8), randMat(8, 3)
	for i := 0; i < 8; i++ {
		gmA.Set(i, i, gmA.At(i, i)+8)
	}

	for _, c := range []struct {
		name      string
		returned  int // bytes of the returned value
		allowance float64
		call      func() error
	}{
		{"SolveSimplex", 8 * lpCols, 22 << 10, func() error {
			_, _, err := SolveSimplex(d8, lpC, lpA, lpB, lpOpts)
			return err
		}},
		{"MatMul", 8 * 64 * 64, 1 << 10, func() error {
			_, _, err := MatMul(d8, mmA, mmB, embed.Block)
			return err
		}},
		{"LU.Solve", 8 * luN, 1 << 10, func() error {
			_, _, err := lu.Solve(luB)
			return err
		}},
		{"SolveTridiag", 8 * trN, 52_000, func() error {
			_, _, err := SolveTridiag(d4, trA, trB, trC, trD)
			return err
		}},
		{"SolveGauss", 8 * gN, 512, func() error {
			_, _, err := SolveGauss(d6, gA, gB, DefaultGaussOpts())
			return err
		}},
		{"SolveGaussMany", 8 * 8 * 3, 512, func() error {
			_, _, err := SolveGaussMany(d6, gmA, gmB, DefaultGaussOpts())
			return err
		}},
	} {
		per := testutil.BytesPerRun(2, 3, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		})
		beyond := per - float64(c.returned)
		t.Logf("%s: %.0f B per call, %.0f B beyond its result", c.name, per, beyond)
		if beyond > c.allowance {
			t.Errorf("%s allocates %.0f B per call beyond its %d-byte result, want <= %.0f B", c.name, beyond, c.returned, c.allowance)
		}
	}
}
