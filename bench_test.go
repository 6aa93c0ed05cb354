package vmprim

// One benchmark per table/figure of the reconstructed evaluation (see
// DESIGN.md). Each benchmark regenerates its experiment through the
// internal/bench harness and prints the table once, so the output of
//
//	go test -bench . -benchmem
//
// contains every row EXPERIMENTS.md records. Benchmarks measure host
// wall time per experiment; the tables themselves carry the simulated
// machine times, which are deterministic and host-independent.

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

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if _, done := printOnce.LoadOrStore(id, true); !done && last != nil {
		fmt.Fprintln(os.Stdout)
		last.Fprint(os.Stdout)
	}
}

func BenchmarkE1Primitives(b *testing.B) { runExperiment(b, "E1") }
func BenchmarkE2Scaling(b *testing.B)    { runExperiment(b, "E2") }
func BenchmarkE3Matvec(b *testing.B)     { runExperiment(b, "E3") }
func BenchmarkE4Gauss(b *testing.B)      { runExperiment(b, "E4") }
func BenchmarkE5Simplex(b *testing.B)    { runExperiment(b, "E5") }
func BenchmarkF1Speedup(b *testing.B)    { runExperiment(b, "F1") }
func BenchmarkF2Efficiency(b *testing.B) { runExperiment(b, "F2") }
func BenchmarkF3Embedding(b *testing.B)  { runExperiment(b, "F3") }
func BenchmarkA1Ports(b *testing.B)      { runExperiment(b, "A1") }
func BenchmarkA2Broadcast(b *testing.B)  { runExperiment(b, "A2") }
func BenchmarkA3Cyclic(b *testing.B)     { runExperiment(b, "A3") }

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

func BenchmarkX1MatMul(b *testing.B)          { runExperiment(b, "X1") }
func BenchmarkX2DirectIterative(b *testing.B) { runExperiment(b, "X2") }

func BenchmarkA4AllPort(b *testing.B) { runExperiment(b, "A4") }

func BenchmarkX3Tridiag(b *testing.B) { runExperiment(b, "X3") }
