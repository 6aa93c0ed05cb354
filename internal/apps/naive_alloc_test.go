package apps

import (
	"math/rand"
	"testing"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
	"vmprim/internal/testutil"
)

// naiveVecMatRun is the route workload's naive vector-matrix multiply
// (d = 8, n = 128, block/block) as one Run of the kernel on operands
// distributed once, so that what it allocates is the kernel's own.
func naiveVecMatRun(tb testing.TB) func() {
	const d, n = 8, 128
	rng := rand.New(rand.NewSource(14))
	a := serial.NewMat(n, n)
	for i := range a.A {
		a.A[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	g := embed.SplitFor(d, n, n)
	da, err := core.FromDense(g, a, embed.Block, embed.Block)
	if err != nil {
		tb.Fatal(err)
	}
	dx, err := core.VectorFromSlice(g, x, core.ColAligned, embed.Block, 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	m := hypercube.MustNew(d, costmodel.CM2())
	tb.Cleanup(m.Close)
	return func() {
		if _, err := m.Run(func(p *hypercube.Proc) { VecMatKernel(core.NewEnv(p, g), da, dx, MatvecNaive) }); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestVecMatNaiveSteadyStateAllocs: the naive kernel builds its
// requests and partial products straight into router batches and
// reads the inboxes, with no message lists. Measured: 23.5 objects per
// processor per run with []router.Msg lists in and out of the router,
// 12.0 with batches and inboxes, 5.1 with the router forwarding in
// place instead of copying traffic that leaves from several runs, 1
// object per run with the router's wires reused two routes later. The
// guard allows 0.1 per processor, so a wire made afresh on every
// processor fails it.
func TestVecMatNaiveSteadyStateAllocs(t *testing.T) {
	run := naiveVecMatRun(t)
	per := testutil.MallocsPerRun(3, 10, run) / 256
	t.Logf("naive vector-matrix multiply d=8 n=128: %.0f objects per run, %.2f per processor", 256*per, per)
	if per > 0.1 {
		t.Fatalf("naive vector-matrix multiply allocates %.2f objects per processor per run, want <= 0.1", per)
	}
}

// BenchmarkVecMatNaive is the route workload's naive vector-matrix
// multiply, one Run of the kernel per iteration. The allocation
// columns price the naive app's share of the router per call.
func BenchmarkVecMatNaive(b *testing.B) {
	run := naiveVecMatRun(b)
	run() // create the coroutines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
