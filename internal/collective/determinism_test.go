package collective

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

// GOMAXPROCS determinism between runs: GOMAXPROCS cannot reorder the
// processors of one machine (TestScheduleIndependence in
// internal/hypercube varies that order), but it lets separate machines
// run at the same time. Machines must share no state, so each of four
// collective runs at once on max(2, NumCPU) threads must match a run
// alone at GOMAXPROCS 1.

// collectiveWorkload runs a representative mix (reduce, bcast,
// all-to-all personalized) on a fresh machine and returns the clocks
// and link loads as one comparable string.
func collectiveWorkload(d int) (string, error) {
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return "", err
	}
	defer m.Close()
	mask := (1 << d) - 1
	k := gray.OnesCount(mask)
	_, err = m.Run(func(p *hypercube.Proc) {
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
	return fmt.Sprintf("clocks %v\nlink loads %v", m.Clocks(), m.Congestion(0)), err
}

func TestCollectiveGOMAXPROCSDeterminism(t *testing.T) {
	const d = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, err := collectiveWorkload(d)
	if err != nil {
		t.Fatal(err)
	}
	gmp := max(2, runtime.NumCPU())
	runtime.GOMAXPROCS(gmp)
	var got [4]string
	var errs [4]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = collectiveWorkload(d)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("concurrent run %d at GOMAXPROCS %d differs from the lone run at GOMAXPROCS 1:\n%s\n%s", i, gmp, got[i], want)
		}
	}
}
