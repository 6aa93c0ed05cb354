package collective

import (
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

func TestBcastAllPortDelivers(t *testing.T) {
	const d = 4
	m, err := hypercube.New(d, costmodel.CM2().WithAllPorts(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		if k == 0 {
			continue
		}
		for rootRel := 0; rootRel < 1<<k; rootRel++ {
			n := 3 * k // divisible by k
			got := make([][]float64, m.P())
			_, err := m.Run(func(p *hypercube.Proc) {
				base := float64(p.ID()&^mask) * 1000
				var data []float64
				if gray.Compact(p.ID(), mask) == rootRel {
					data = make([]float64, n)
					for i := range data {
						data[i] = base + float64(i)
					}
				}
				got[p.ID()] = BcastAllPort(p, mask, 1, rootRel, data)
			})
			if err != nil {
				t.Fatalf("mask %b root %d: %v", mask, rootRel, err)
			}
			for pid := 0; pid < m.P(); pid++ {
				base := float64(pid&^mask) * 1000
				if len(got[pid]) != n {
					t.Fatalf("mask %b root %d proc %d: len %d, want %d", mask, rootRel, pid, len(got[pid]), n)
				}
				for i := range got[pid] {
					if got[pid][i] != base+float64(i) {
						t.Fatalf("mask %b root %d proc %d elem %d: %v, want %v",
							mask, rootRel, pid, i, got[pid][i], base+float64(i))
					}
				}
			}
		}
	}
}

func TestBcastAllPortEmptyPayload(t *testing.T) {
	m, err := hypercube.New(3, costmodel.CM2().WithAllPorts(true))
	if err != nil {
		t.Fatal(err)
	}
	mask := 0b111
	_, err = m.Run(func(p *hypercube.Proc) {
		var data []float64 // nil at root too
		out := BcastAllPort(p, mask, 1, 0, data)
		if len(out) != 0 {
			panic("phantom data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllPortMaskZero(t *testing.T) {
	m, _ := hypercube.New(2, costmodel.CM2().WithAllPorts(true))
	_, err := m.Run(func(p *hypercube.Proc) {
		out := BcastAllPort(p, 0, 1, 0, []float64{1, 2, 3})
		if len(out) != 3 || out[0] != 1 {
			panic("mask-0 broadcast broken")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllPortRejectsBadLength(t *testing.T) {
	m, _ := hypercube.New(2, costmodel.CM2().WithAllPorts(true))
	_, err := m.Run(func(p *hypercube.Proc) {
		var data []float64
		if p.ID() == 0 {
			data = []float64{1, 2, 3} // 3 % 2 != 0
		}
		BcastAllPort(p, 0b11, 1, 0, data)
	})
	if err == nil {
		t.Fatal("bad length accepted")
	}
}

func TestBcastAllPortBandwidthWin(t *testing.T) {
	// On the all-port machine with a long payload, the rotated-tree
	// broadcast must beat the one-port binomial tree by close to a
	// factor d in the bandwidth term.
	const d = 6
	n := d * 4096
	data := make([]float64, n)
	mask := (1 << d) - 1

	allPort, _ := hypercube.New(d, costmodel.CM2().WithAllPorts(true))
	_, err := allPort.Run(func(p *hypercube.Proc) {
		var src []float64
		if p.ID() == 0 {
			src = data
		}
		BcastAllPort(p, mask, 1, 0, src)
	})
	if err != nil {
		t.Fatal(err)
	}
	tAllPort := allPort.Elapsed()

	_, err = allPort.Run(func(p *hypercube.Proc) {
		var src []float64
		if p.ID() == 0 {
			src = data
		}
		Bcast(p, mask, 1, 0, src)
	})
	if err != nil {
		t.Fatal(err)
	}
	tBinomial := allPort.Elapsed()

	speedup := float64(tBinomial) / float64(tAllPort)
	if speedup < float64(d)/2 {
		t.Fatalf("all-port speedup %.2f, want >= %.1f (d=%d)", speedup, float64(d)/2, d)
	}
}

func TestBcastAllPortResultIndependentOfPortModel(t *testing.T) {
	// The schedule is valid (slower) on one-port machines too; the
	// delivered data must not change.
	for _, allPorts := range []bool{false, true} {
		m, _ := hypercube.New(3, costmodel.CM2().WithAllPorts(allPorts))
		want := []float64{1, 2, 3, 4, 5, 6}
		got := make([][]float64, m.P())
		_, err := m.Run(func(p *hypercube.Proc) {
			var src []float64
			if p.ID() == 0 {
				src = want
			}
			got[p.ID()] = BcastAllPort(p, 0b111, 1, 0, src)
		})
		if err != nil {
			t.Fatal(err)
		}
		for pid := range got {
			for i := range want {
				if got[pid][i] != want[i] {
					t.Fatalf("allPorts=%v proc %d: %v", allPorts, pid, got[pid])
				}
			}
		}
	}
}

func TestReduceAllPortMatchesReduce(t *testing.T) {
	const d = 4
	m, err := hypercube.New(d, costmodel.CM2().WithAllPorts(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		if k == 0 {
			continue
		}
		n := 2 * k
		for rootRel := 0; rootRel < 1<<k; rootRel++ {
			got := make([][]float64, m.P())
			_, err := m.Run(func(p *hypercube.Proc) {
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(p.ID()*n + i)
				}
				got[p.ID()] = ReduceAllPort(p, mask, 1, rootRel, data, Sum)
			})
			if err != nil {
				t.Fatalf("mask %b root %d: %v", mask, rootRel, err)
			}
			for pid := 0; pid < m.P(); pid++ {
				isRoot := gray.Compact(pid, mask) == rootRel
				if !isRoot {
					if got[pid] != nil {
						t.Fatalf("mask %b root %d: non-root %d has data", mask, rootRel, pid)
					}
					continue
				}
				for i := 0; i < n; i++ {
					want := 0.0
					for q := 0; q < m.P(); q++ {
						if q&^mask == pid&^mask {
							want += float64(q*n + i)
						}
					}
					if got[pid][i] != want {
						t.Fatalf("mask %b root proc %d elem %d: %v, want %v", mask, pid, i, got[pid][i], want)
					}
				}
			}
		}
	}
}

func TestReduceAllPortBandwidthWin(t *testing.T) {
	const d = 6
	n := d * 4096
	mask := (1 << d) - 1
	m, _ := hypercube.New(d, costmodel.CM2().WithAllPorts(true))
	mkData := func(p *hypercube.Proc) []float64 {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(p.ID() + i)
		}
		return data
	}
	if _, err := m.Run(func(p *hypercube.Proc) {
		ReduceAllPort(p, mask, 1, 0, mkData(p), Sum)
	}); err != nil {
		t.Fatal(err)
	}
	tAllPort := m.Elapsed()
	if _, err := m.Run(func(p *hypercube.Proc) {
		Reduce(p, mask, 1, 0, mkData(p), Sum)
	}); err != nil {
		t.Fatal(err)
	}
	tTree := m.Elapsed()
	if speedup := float64(tTree) / float64(tAllPort); speedup < float64(d)/2 {
		t.Fatalf("all-port reduce speedup %.2f, want >= %.1f", speedup, float64(d)/2)
	}
}

func TestReduceAllPortRejectsBadLength(t *testing.T) {
	m, _ := hypercube.New(2, costmodel.CM2().WithAllPorts(true))
	_, err := m.Run(func(p *hypercube.Proc) {
		ReduceAllPort(p, 0b11, 1, 0, []float64{1, 2, 3}, Sum)
	})
	if err == nil {
		t.Fatal("bad length accepted")
	}
}
