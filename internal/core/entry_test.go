package core

import (
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// BenchmarkPrimitiveEntry times single primitive calls where the
// per-call cost decides: a d = 8 cube holding a 64x64 block/block
// matrix in 4x4 local blocks, the regime of the matrix-multiply and
// simplex applications. One iteration is a Run of calls calls per
// processor; it reports host nanoseconds per processor-call. The
// insert cases move a vector homed on another grid row (column) to
// the owner first, and the loc-reductions span the whole line. Each
// extraction runs in a step scope of its own, as a solver loop's does.
func BenchmarkPrimitiveEntry(b *testing.B) {
	const d, n, calls, home = 8, 64, 64, 5
	g, err := embed.NewGrid(d/2, d/2)
	if err != nil {
		b.Fatal(err)
	}
	a := MustNewMatrix(g, n, n, embed.Block, embed.Block)
	for pid := 0; pid < g.P(); pid++ {
		for k, blk := 0, a.L(pid); k < len(blk); k++ {
			blk[k] = float64(pid*len(blk) + k)
		}
	}
	for _, bc := range []struct {
		name string
		body func(e *Env)
	}{
		{"extract-row-local", scoped(calls, func(e *Env, c int) { e.ExtractRow(a, c, false) })},
		{"extract-row-replicated", scoped(calls, func(e *Env, c int) { e.ExtractRow(a, c, true) })},
		{"extract-col-local", scoped(calls, func(e *Env, c int) { e.ExtractCol(a, c, false) })},
		{"extract-col-replicated", scoped(calls, func(e *Env, c int) { e.ExtractCol(a, c, true) })},
		{"insert-row-moved", func(e *Env) {
			v := e.TempVector(n, RowAligned, embed.Block, home, false)
			for c := 0; c < calls; c++ {
				e.InsertRow(a, v, 0)
			}
		}},
		{"insert-col-moved", func(e *Env) {
			v := e.TempVector(n, ColAligned, embed.Block, home, false)
			for c := 0; c < calls; c++ {
				e.InsertCol(a, v, 0)
			}
		}},
		{"reduce-row-loc", func(e *Env) {
			for c := 0; c < calls; c++ {
				e.ReduceRowLoc(a, c, 0, n, LocMax)
			}
		}},
		{"reduce-col-loc", func(e *Env) {
			for c := 0; c < calls; c++ {
				e.ReduceColLoc(a, c, 0, n, LocMax)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := hypercube.MustNew(d, costmodel.CM2())
			defer m.Close()
			run := func() {
				if _, err := m.Run(func(p *hypercube.Proc) { bc.body(NewEnv(p, g)) }); err != nil {
					b.Fatal(err)
				}
			}
			run() // create the coroutines, warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls*m.P()), "ns/call")
		})
	}
}

// scoped returns a body that makes calls calls of call, each in a step
// scope of its own.
func scoped(calls int, call func(e *Env, c int)) func(e *Env) {
	return func(e *Env) {
		for c := 0; c < calls; c++ {
			step := e.Mark()
			call(e, c)
			e.Release(step)
		}
	}
}
