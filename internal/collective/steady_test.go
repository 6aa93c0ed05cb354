package collective

import (
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// TestCollectiveSteadyState checks that every exported collective
// reaches a steady state that the pool serves: at d = 6 under all-port
// CM2 costs, with a 384-word payload and root 3, after 20 warm-up Runs
// each of the next 10 Runs gets every pooled buffer from a free list,
// and the collectives that hand back only pooled buffers allocate
// nothing; the all-port pair allocates only ExchangeAll's result slice
// at each of its k steps, p·k in all. AllToAll's per-slot copies are
// its own and are not bounded here.
func TestCollectiveSteadyState(t *testing.T) {
	const (
		d    = 6
		n    = 384
		root = 3
	)
	const full = 1<<d - 1
	cases := []struct {
		name      string
		maxAllocs float64 // per Run; negative: not checked
		body      func(p *hypercube.Proc, data []float64)
	}{
		{"Bcast", -1, func(p *hypercube.Proc, data []float64) {
			p.Recycle(Bcast(p, full, 1, root, data))
		}},
		{"BcastLarge", 0, func(p *hypercube.Proc, data []float64) {
			p.Recycle(BcastLarge(p, full, 1, root, data))
		}},
		{"Reduce", -1, func(p *hypercube.Proc, data []float64) {
			p.Recycle(Reduce(p, full, 1, root, data, Sum))
		}},
		{"ReduceScatter", 0, func(p *hypercube.Proc, data []float64) {
			piece, _ := ReduceScatter(p, full, 1, data, Sum)
			p.Recycle(piece)
		}},
		{"AllGather", -1, func(p *hypercube.Proc, data []float64) {
			p.Recycle(AllGather(p, full, 1, data[:n>>d]))
		}},
		{"AllReduce", 0, func(p *hypercube.Proc, data []float64) {
			p.Recycle(AllReduce(p, full, 1, data, Sum))
		}},
		{"Gather", 0, func(p *hypercube.Proc, data []float64) {
			p.Recycle(Gather(p, full, 1, root, data))
		}},
		{"Scatter", 0, func(p *hypercube.Proc, data []float64) {
			p.Recycle(Scatter(p, full, 1, root, data))
		}},
		{"AllToAll", -1, func(p *hypercube.Proc, data []float64) {
			var out [1 << d][]float64
			for j := range out {
				out[j] = data[j*(n>>d) : (j+1)*(n>>d)]
			}
			for _, got := range AllToAll(p, full, 1, out[:]) {
				p.Recycle(got)
			}
		}},
		{"ScanInclusive", -1, func(p *hypercube.Proc, data []float64) {
			p.Recycle(ScanInclusive(p, full, 1, data, Sum))
		}},
		{"ScanExclusive", -1, func(p *hypercube.Proc, data []float64) {
			p.Recycle(ScanExclusive(p, full, 1, data, data, Sum))
		}},
		{"BcastAllPort", 1 << d * d, func(p *hypercube.Proc, data []float64) {
			p.Recycle(BcastAllPort(p, full, 1, root, data))
		}},
		{"ReduceAllPort", 1 << d * d, func(p *hypercube.Proc, data []float64) {
			p.Recycle(ReduceAllPort(p, full, 1, root, data, Sum))
		}},
	}
	params := costmodel.CM2()
	params.AllPorts = true
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := hypercube.New(d, params)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			inputs := make([][]float64, m.P())
			for id := range inputs {
				inputs[id] = make([]float64, n)
				for j := range inputs[id] {
					inputs[id][j] = float64(id + j)
				}
			}
			body := func(p *hypercube.Proc) { tc.body(p, inputs[p.ID()]) }
			run := func() {
				if _, err := m.Run(body); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				run()
			}
			before := m.Metrics().Snapshot()
			for i := 0; i < 10; i++ {
				run()
			}
			after := m.Metrics().Snapshot()
			delta := func(name string) float64 {
				a, _ := after.Value(name)
				b, _ := before.Value(name)
				return a - b
			}
			if gets, hits := delta("vmprim_pool_gets_total"), delta("vmprim_pool_hits_total"); hits != gets {
				t.Errorf("10 warm Runs: %v pool gets, %v hits (%v misses per Run)", gets, hits, (gets-hits)/10)
			}
			if tc.maxAllocs >= 0 {
				if per := testing.AllocsPerRun(1, run); per > tc.maxAllocs {
					t.Errorf("a warm Run allocates %v objects, want <= %v", per, tc.maxAllocs)
				}
			}
		})
	}
}
