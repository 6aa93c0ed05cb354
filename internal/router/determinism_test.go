package router

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// GOMAXPROCS determinism between runs: GOMAXPROCS cannot reorder the
// processors of one machine (TestScheduleIndependence in
// internal/hypercube varies that order), but it lets separate machines
// run at the same time. Machines must share no state, so each of four
// router runs at once on max(2, NumCPU) threads must deliver the same
// messages in the same order, with the same clocks and link loads, as
// a run alone at GOMAXPROCS 1. The traffic is a random permutation
// plus an all-to-one hotspot, the two patterns with the most
// forwarding contention.
func routerWorkload() (string, error) {
	m, err := hypercube.New(5, costmodel.CM2())
	if err != nil {
		return "", err
	}
	defer m.Close()
	perm := rand.New(rand.NewSource(42)).Perm(m.P())
	received := make([][]Msg, m.P())
	_, err = m.Run(func(p *hypercube.Proc) {
		received[p.ID()] = Route(p, 1, []Msg{
			{Dst: perm[p.ID()], Key: p.ID(), Words: []float64{1, 2, 3}},
			{Dst: 7, Key: 1000 + p.ID(), Words: []float64{float64(p.ID())}},
		})
	})
	return fmt.Sprintf("clocks %v\nlink loads %v\ndelivered %v", m.Clocks(), m.Congestion(0), received), err
}

func TestRouteGOMAXPROCSDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, err := routerWorkload()
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
			got[i], errs[i] = routerWorkload()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("concurrent run %d at GOMAXPROCS %d differs from the lone run at GOMAXPROCS 1:\n%.300s\n%.300s", i, gmp, got[i], want)
		}
	}
}
