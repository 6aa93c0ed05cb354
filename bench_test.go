package vmprim

// The tables and figures of the reconstructed evaluation (see
// DESIGN.md), one sub-benchmark per experiment of the registry, each
// regenerating its table through the internal/bench harness and
// printing it once. So the output of
//
//	go test -bench . -benchmem
//
// contains every row EXPERIMENTS.md records, and
// `go test -bench 'Experiment/E3'` regenerates one table. Benchmarks
// measure host wall time per experiment; the tables themselves carry
// the simulated machine times, which are deterministic and
// host-independent.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"vmprim/internal/bench"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

var printOnce sync.Map

func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			var last *bench.Table
			for i := 0; i < b.N; i++ {
				t, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = t
			}
			if _, done := printOnce.LoadOrStore(e.ID, true); !done && last != nil {
				fmt.Fprintln(os.Stdout)
				last.Fprint(os.Stdout)
			}
		})
	}
}

// Micro-benchmarks of the individual primitives at a fixed
// configuration (d=8, 512x512), reporting simulated machine time per
// operation alongside the host time testing.B measures.

func primitiveBench(b *testing.B, body func(e *core.Env, a *core.Matrix)) {
	b.Helper()
	const d, n = 8, 512
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	g := embed.SplitFor(d, n, n)
	a, err := core.FromDense(g, bench.RandMat(1, n, n), embed.Block, embed.Block)
	if err != nil {
		b.Fatal(err)
	}
	var sim costmodel.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elapsed, err := m.Run(func(p *hypercube.Proc) {
			body(core.NewEnv(p, g), a)
		})
		if err != nil {
			b.Fatal(err)
		}
		sim = elapsed
	}
	b.ReportMetric(float64(sim), "sim-us/op")
}

func BenchmarkPrimitiveExtractRow(b *testing.B) {
	primitiveBench(b, func(e *core.Env, a *core.Matrix) { e.ExtractRow(a, a.Rows/2, true) })
}

func BenchmarkPrimitiveInsertRow(b *testing.B) {
	primitiveBench(b, func(e *core.Env, a *core.Matrix) {
		v := e.ExtractRow(a, 0, false)
		e.InsertRow(a, v, a.Rows/2)
	})
}

func BenchmarkPrimitiveDistribute(b *testing.B) {
	primitiveBench(b, func(e *core.Env, a *core.Matrix) {
		v := e.ExtractRow(a, 0, false)
		e.Distribute(v)
	})
}

func BenchmarkPrimitiveReduceRows(b *testing.B) {
	primitiveBench(b, func(e *core.Env, a *core.Matrix) { e.ReduceRows(a, core.OpSum, true) })
}

func BenchmarkPrimitiveReduceColLoc(b *testing.B) {
	primitiveBench(b, func(e *core.Env, a *core.Matrix) {
		e.ReduceColLoc(a, a.Cols/2, 0, a.Rows, core.LocMaxAbs)
	})
}

func BenchmarkPrimitiveTranspose(b *testing.B) {
	primitiveBench(b, func(e *core.Env, a *core.Matrix) { e.Transpose(a) })
}
