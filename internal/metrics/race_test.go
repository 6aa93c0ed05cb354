package metrics

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The serving layer snapshots the registry while runs are still
// folding their metrics in, so the registry must tolerate concurrent
// writers and snapshotters. This test hammers a counter, a gauge and a
// histogram from GOMAXPROCS goroutines while a snapshot loop runs,
// then checks three invariants on every snapshot taken mid-flight:
// counters are monotone across successive snapshots, histogram
// cumulative buckets are non-decreasing left to right with the +Inf
// bucket equal to Count (no torn bucket vectors), and after the
// writers join the totals are exact. Run it under -race to catch
// synchronization bugs the invariants cannot see.
func TestRegistryConcurrentSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	g := r.Gauge("depth", "")
	h := r.Histogram("lat_us", "", []float64{1, 2, 4, 8})

	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	const perWriter = 20000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				g.Set(float64(seed))
				h.Observe(float64((seed + i) % 10))
			}
		}(w)
	}

	snaps := 0
	var prevHits float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Snapshot first, then look at stop: this goroutine may be scheduled
		// only after the writers are done, and must still check one snapshot.
		for {
			s := r.Snapshot()
			snaps++
			hits, ok := s.Value("hits_total")
			if !ok || hits < prevHits {
				t.Errorf("snapshot %d: counter went backwards: %g < %g", snaps, hits, prevHits)
				return
			}
			prevHits = hits
			hm := s.Metrics[2]
			if hm.Name != "lat_us" {
				t.Errorf("snapshot order changed: %q", hm.Name)
				return
			}
			var last int64 = -1
			for bi, b := range hm.Buckets {
				if b.Count < last {
					t.Errorf("snapshot %d: bucket %d cumulative count fell: %d < %d", snaps, bi, b.Count, last)
					return
				}
				last = b.Count
			}
			if hm.Buckets[len(hm.Buckets)-1].Count != hm.Count {
				t.Errorf("snapshot %d: torn histogram: +Inf bucket %d != count %d",
					snaps, hm.Buckets[len(hm.Buckets)-1].Count, hm.Count)
				return
			}
			if stop.Load() {
				return
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	<-done

	want := int64(writers * perWriter)
	if got := c.Value(); got != want {
		t.Fatalf("final counter = %d, want %d", got, want)
	}
	final := r.Snapshot()
	var hm *MetricValue
	for i := range final.Metrics {
		if final.Metrics[i].Name == "lat_us" {
			hm = &final.Metrics[i]
		}
	}
	if hm.Count != want {
		t.Fatalf("final histogram count = %d, want %d", hm.Count, want)
	}
	if hm.Buckets[len(hm.Buckets)-1].Count != want {
		t.Fatalf("final +Inf bucket = %d, want %d", hm.Buckets[len(hm.Buckets)-1].Count, want)
	}
	// Every writer observes the same multiset {0..9} x (perWriter/10),
	// so the sum is exact: writers * perWriter/10 * (0+..+9).
	if wantSum := float64(writers) * perWriter / 10 * 45; hm.Sum != wantSum {
		t.Fatalf("final histogram sum = %g, want %g", hm.Sum, wantSum)
	}
}
