package hypercube

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/testutil"
)

func TestMachinePoolHitMissEvict(t *testing.T) {
	defer testutil.CheckLeaks(t, testutil.Snapshot())
	mp := NewMachinePool(2)
	defer mp.Close()
	cm2, ipsc := costmodel.CM2(), costmodel.IPSC()

	m1, hit, err := mp.Acquire(2, cm2)
	if err != nil || hit {
		t.Fatalf("first acquire: hit=%v err=%v, want miss", hit, err)
	}
	if m1.Dim() != 2 {
		t.Fatalf("acquired dim %d, want 2", m1.Dim())
	}
	mp.Release(m1)

	// Same dimension and model: must hand back the identical machine.
	m2, hit, err := mp.Acquire(2, cm2)
	if err != nil || !hit {
		t.Fatalf("second acquire: hit=%v err=%v, want hit", hit, err)
	}
	if m2 != m1 {
		t.Fatalf("pool returned a different machine for the same dimension")
	}
	mp.Release(m2)

	// Same dimension, other cost model: the same warm machine, handed
	// out under the new parameters.
	m3, hit, err := mp.Acquire(2, ipsc)
	if err != nil || !hit {
		t.Fatalf("ipsc acquire: hit=%v err=%v, want hit", hit, err)
	}
	if m3 != m1 || m3.Params() != ipsc {
		t.Fatalf("ipsc acquire: same machine %v, params %+v; want the pooled machine priced by ipsc",
			m3 == m1, m3.Params())
	}

	// Fill past capacity: m3 (released first) must be evicted, the two
	// most recent machines retained.
	m4, hit, err := mp.Acquire(2, cm2)
	if err != nil || hit {
		t.Fatalf("acquire with the only d=2 machine out: hit=%v err=%v, want miss", hit, err)
	}
	m5, _, err := mp.Acquire(3, cm2)
	if err != nil {
		t.Fatal(err)
	}
	mp.Release(m3)
	mp.Release(m4)
	mp.Release(m5)

	st := mp.Stats()
	if st.Evictions != 1 || st.Idle != 2 {
		t.Fatalf("stats after overflow: %+v, want 1 eviction, 2 idle", st)
	}
	// Invalid parameters are refused before the pool is looked at.
	if m, _, err := mp.Acquire(3, costmodel.Params{CommStartup: -1}); err == nil || m != nil {
		t.Fatalf("acquire with a negative start-up: machine %v, err %v; want an error", m, err)
	}
	if got := mp.Stats(); got != st {
		t.Fatalf("a refused acquire changed the pool: %+v, was %+v", got, st)
	}
	// The pool's Close only retires idle machines, so these acquired
	// ones are ours to close — the leak check holds us to it.
	m6, hit, _ := mp.Acquire(2, ipsc)
	if !hit || m6 != m4 || m6.Params() != ipsc {
		t.Fatalf("d=2 acquire: hit=%v, machine m4 %v, params %+v; want m4 priced by ipsc",
			hit, m6 == m4, m6.Params())
	}
	defer m6.Close()
	m7, hit, _ := mp.Acquire(2, cm2)
	if hit {
		t.Fatalf("evicted machine still hit the pool")
	}
	defer m7.Close()
	m8, hit, _ := mp.Acquire(3, cm2)
	if !hit || m8 != m5 {
		t.Fatalf("most recently released machine missed the pool")
	}
	defer m8.Close()
	st = mp.Stats()
	if st.Hits != 4 || st.Misses != 4 {
		t.Fatalf("final stats %+v, want 4 hits / 4 misses", st)
	}
}

// Pooled machines must still run correctly after a round trip, and the
// pool must tolerate concurrent acquire/release traffic. Machines run
// on eight goroutines at once while their buffers cross processors, so
// under the race detector this is also the evidence that a machine's
// buffer pool and state are reached from one goroutine only, and need
// no lock.
func TestMachinePoolConcurrentRuns(t *testing.T) {
	defer testutil.CheckLeaks(t, testutil.Snapshot())
	mp := NewMachinePool(2)
	defer mp.Close()
	ref, _, err := mp.Acquire(3, costmodel.CM2())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runBcast(ref)
	if err != nil {
		t.Fatal(err)
	}
	mp.Release(ref)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				m, _, err := mp.Acquire(3, costmodel.CM2())
				if err != nil {
					errs <- err
					return
				}
				got, err := runBcast(m)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					t.Errorf("pooled run elapsed %v, want %v", got, want)
				}
				mp.Release(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A hit hands out a machine whose metrics read as a fresh machine's,
// whatever its earlier tenants did: here one that ran and one whose
// body panicked after communicating.
func TestMachinePoolHitZeroesMetrics(t *testing.T) {
	mp := NewMachinePool(1)
	defer mp.Close()
	render := func(m *Machine) string {
		var buf bytes.Buffer
		if err := m.Metrics().Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	m, _, err := mp.Acquire(3, costmodel.CM2())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runBcast(m); err != nil {
		t.Fatal(err)
	}
	mp.Release(m)

	m, hit, err := mp.Acquire(3, costmodel.CM2())
	if err != nil || !hit {
		t.Fatalf("second tenant: hit=%v err=%v, want a hit", hit, err)
	}
	_, err = m.Run(func(p *Proc) {
		p.Recycle(p.Exchange(0, 1, []float64{1, 2}))
		if p.ID() == 5 {
			panic("tenant failure")
		}
	})
	if err == nil {
		t.Fatal("panicking tenant returned no error")
	}
	if v, _ := m.Metrics().Snapshot().Value("vmprim_run_failures_total"); v != 1 {
		t.Fatalf("failed tenant's metrics count %v failures, want 1", v)
	}
	mp.Release(m)

	m, hit, err = mp.Acquire(3, costmodel.IPSC())
	if err != nil || !hit {
		t.Fatalf("third tenant: hit=%v err=%v, want a hit", hit, err)
	}
	defer mp.Release(m)
	fresh := MustNew(3, costmodel.IPSC())
	defer fresh.Close()
	if got, want := render(m), render(fresh); got != want {
		t.Fatalf("pooled machine's metrics after a hit:\n%s\nfresh machine's:\n%s", got, want)
	}
}

// runBcast broadcasts a payload from processor 0 down a binomial tree;
// every processor checks what it ends up holding and recycles it. Each
// hop's copy is taken from the pool on one processor and returned on
// another, so pooled buffers cross processors on every run. It returns
// the simulated elapsed time (deterministic for a given cost model).
func runBcast(m *Machine) (costmodel.Time, error) {
	const words = 16
	return m.Run(func(p *Proc) {
		var buf []float64
		if p.ID() == 0 {
			buf = p.GetBuf(words)
			for i := range buf {
				buf[i] = float64(i + 1)
			}
		}
		for d := p.Dim() - 1; d >= 0; d-- {
			switch low := p.ID() & (1<<d - 1); {
			case low != 0:
			case p.ID()>>d&1 == 0:
				p.Send(d, d, buf)
			default:
				buf = p.Recv(d, d)
			}
		}
		for i, w := range buf {
			if w != float64(i+1) {
				panic(fmt.Sprintf("word %d = %v, want %d", i, w, i+1))
			}
		}
		p.Recycle(buf)
	})
}

// TestMachinePoolHitAllocatesNothing: a served run that hits the pool
// takes its machine and puts it back without allocating, whichever
// slot of the LRU order the machine came from and whichever cost model
// it is handed out under.
func TestMachinePoolHitAllocatesNothing(t *testing.T) {
	mp := NewMachinePool(2)
	defer mp.Close()
	for _, dim := range []int{2, 3} {
		m, _, err := mp.Acquire(dim, costmodel.CM2())
		if err != nil {
			t.Fatal(err)
		}
		mp.Release(m)
	}
	for _, dim := range []int{2, 3} {
		for _, params := range []costmodel.Params{costmodel.CM2(), costmodel.IPSC()} {
			allocs := testing.AllocsPerRun(100, func() {
				m, hit, err := mp.Acquire(dim, params)
				if err != nil || !hit {
					t.Fatalf("acquire d=%d: hit=%v err=%v, want a hit", dim, hit, err)
				}
				mp.Release(m)
			})
			if allocs != 0 {
				t.Errorf("Acquire/Release of a pooled machine allocates %.1f objects, want 0", allocs)
			}
		}
	}
	if st := mp.Stats(); st.Misses != 2 || st.Evictions != 0 || st.Idle != 2 {
		t.Errorf("pool stats %+v, want 2 misses, no evictions, 2 idle", st)
	}
}
