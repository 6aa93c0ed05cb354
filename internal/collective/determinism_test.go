package collective

import (
	"fmt"
	"runtime"
	"testing"

	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

// Host-parallel determinism for the collectives: the protocols are
// built from paired exchanges and dimension loops whose receive order
// is fixed by program order, so their simulated clocks and link loads
// must not depend on the order the host runs the processors in.

// collectiveWorkload runs a representative mix (reduce, bcast,
// all-to-all personalized) on a fresh machine and returns the clocks
// and link loads as comparable strings.
func collectiveWorkload(t *testing.T, d int) (clocks, links string) {
	t.Helper()
	m := newMachine(t, d)
	defer m.Close()
	mask := (1 << d) - 1
	k := gray.OnesCount(mask)
	_, err := m.Run(func(p *hypercube.Proc) {
		data := []float64{float64(p.ID()), float64(p.ID() * 2)}
		Reduce(p, mask, 1, 0, append([]float64(nil), data...), Sum)
		var bdata []float64
		if gray.Compact(p.ID(), mask) == 0 {
			bdata = data
		}
		Bcast(p, mask, 2, 0, bdata)
		out := make([][]float64, 1<<k)
		for i := range out {
			out[i] = []float64{float64(p.ID()*100 + i)}
		}
		AllToAll(p, mask, 3, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v", m.Clocks()), fmt.Sprintf("%v", m.Congestion(0))
}

func TestCollectiveGOMAXPROCSDeterminism(t *testing.T) {
	const d = 4
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	settings := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		settings = append(settings, n)
	}
	var baseClocks, baseLinks string
	baseGMP := 0
	for _, gmp := range settings {
		runtime.GOMAXPROCS(gmp)
		clocks, links := collectiveWorkload(t, d)
		if baseGMP == 0 {
			baseClocks, baseLinks, baseGMP = clocks, links, gmp
			continue
		}
		if clocks != baseClocks {
			t.Errorf("gomaxprocs %d vs %d: clocks differ:\n%s\n%s", gmp, baseGMP, clocks, baseClocks)
		}
		if links != baseLinks {
			t.Errorf("gomaxprocs %d vs %d: link loads differ:\n%s\n%s", gmp, baseGMP, links, baseLinks)
		}
	}
}
