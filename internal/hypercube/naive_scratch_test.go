package hypercube_test

import (
	"testing"

	"vmprim/internal/apps"
	"vmprim/internal/bench"
	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// TestNaiveGaussScratchStaysFlat: the naive Gaussian elimination spreads
// a row and a column through the router at every step, into two
// buffers it takes once per kernel, so the scratch arena it leaves is
// the size of the primitive kernel's, not one that grows by a row and
// a column per step (scratch only bumps within a Run). A naive solve at
// d = 6, n = 128 may take at most twice the primitive one's words per
// processor; taking a fresh buffer per spread, it took 6,530 against
// 324.
func TestNaiveGaussScratchStaysFlat(t *testing.T) {
	const d, n = 6, 128
	a, b := bench.RandSystem(56, n)
	words := func(naive bool) int {
		m := hypercube.MustNew(d, costmodel.CM2())
		defer m.Close()
		opts := apps.DefaultGaussOpts()
		opts.Naive = naive
		if _, _, err := apps.SolveGauss(m, a, b, opts); err != nil {
			t.Fatal(err)
		}
		return m.ScratchRegion()
	}
	prim, naive := words(false), words(true)
	t.Logf("scratch words per processor, d=%d n=%d: primitive %d, naive %d", d, n, prim, naive)
	if naive > 2*prim {
		t.Errorf("naive SolveGauss took %d scratch words per processor, want <= %d (twice the primitive kernel's %d)", naive, 2*prim, prim)
	}
}
