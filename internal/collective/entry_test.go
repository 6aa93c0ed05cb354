package collective

import (
	"fmt"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/testutil"
)

// rowMask returns the row mask of the square (or nearly square) grid
// embedded in a d-cube: the high half of the address bits.
func rowMask(t testing.TB, d int) int {
	g, err := embed.NewGrid(d/2, d-d/2)
	if err != nil {
		t.Fatal(err)
	}
	return g.RowMask()
}

// TestCollectiveEntryAllocs checks that entering a collective costs no
// heap allocation: a Run of short collectives over the whole cube and
// over a row, every result recycled, allocates no more than an empty
// Run does (TestRunFixedOverheadAllocs in internal/hypercube). d = 10
// puts the full mask above 255.
func TestCollectiveEntryAllocs(t *testing.T) {
	for _, d := range []int{8, 10} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			m := newMachine(t, d)
			defer m.Close()
			full, row := m.P()-1, rowMask(t, d)
			one := []float64{1}
			body := func(p *hypercube.Proc) {
				for i := 0; i < 4; i++ {
					p.Recycle(Bcast(p, full, 1, 0, one))
					p.Recycle(Bcast(p, row, 2, 0, one))
				}
				p.Recycle(AllReduce(p, full, 3, one, Sum))
				p.Recycle(Reduce(p, row, 4, 0, one, Sum))
				p.Recycle(ScanInclusive(p, full, 5, one, Sum))
				p.Barrier(full, 6)
			}
			run := func() {
				if _, err := m.Run(body); err != nil {
					t.Fatal(err)
				}
			}
			if per := testutil.MallocsPerRun(3, 10, run); per > 2 {
				t.Fatalf("a Run of collectives allocates %.1f objects, want <= 2", per)
			}
		})
	}
}

// BenchmarkCollectiveEntry times one-word collectives, where a call's
// host cost is its entry and its k start-ups, and reports host
// nanoseconds per processor-call. One iteration is a Run of calls
// calls per processor: enough to amortise the Run's start, few enough
// that a root running ahead of its subcube queues only a few messages.
func BenchmarkCollectiveEntry(b *testing.B) {
	const d, calls = 8, 64
	full, row := 1<<d-1, rowMask(b, d)
	one := []float64{1}
	for _, bc := range []struct {
		name string
		call func(p *hypercube.Proc) []float64
	}{
		{"bcast-full", func(p *hypercube.Proc) []float64 { return Bcast(p, full, 1, 0, one) }},
		{"bcast-4dim", func(p *hypercube.Proc) []float64 { return Bcast(p, row, 1, 0, one) }},
		{"allreduce-4dim", func(p *hypercube.Proc) []float64 { return AllReduce(p, row, 1, one, Sum) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := hypercube.MustNew(d, costmodel.CM2())
			defer m.Close()
			body := func(p *hypercube.Proc) {
				for i := 0; i < calls; i++ {
					p.Recycle(bc.call(p))
				}
			}
			run := func() {
				if _, err := m.Run(body); err != nil {
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
