package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"vmprim/internal/metrics"
)

// GOMAXPROCS determinism stress: the same E1–E5 workloads executed at
// GOMAXPROCS 1, 2 and NumCPU must produce bit-identical simulated
// results — elapsed times, per-processor clocks, link loads, the
// profile document and the Chrome trace, and every metric — the
// host-side counters (frontier parks, pool hits) included, since a
// machine runs its processors one at a time in a fixed order. Simulated
// behavior may depend only on the program and the cost model, never on
// the host.

// gomaxprocsSettings returns the distinct settings to stress: 1, 2 and
// NumCPU (deduplicated, so a single-core host still exercises 1 vs 2 —
// oversubscription shuffles goroutine interleavings just as well).
func gomaxprocsSettings() []int {
	settings := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		settings = append(settings, n)
	}
	return settings
}

// simCapture is everything about a profiled run that must be
// bit-identical across GOMAXPROCS.
type simCapture struct {
	times    string
	clocks   string
	links    string
	profile  []byte
	chrome   []byte
	critpath []byte
	metrics  []metrics.MetricValue
}

func captureRun(t *testing.T, id string) *simCapture {
	t.Helper()
	res, err := ProfileRun(id, true)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	c := &simCapture{
		times:  fmt.Sprintf("%v", res.Times),
		clocks: fmt.Sprintf("%v", res.Clocks),
		links:  fmt.Sprintf("%v", res.Links),
	}
	var buf bytes.Buffer
	if err := res.Profile.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: profile JSON: %v", id, err)
	}
	c.profile = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := res.Profile.ChromeTrace(&buf, 0); err != nil {
		t.Fatalf("%s: chrome trace: %v", id, err)
	}
	c.chrome = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if res.CritPath == nil {
		t.Fatalf("%s: no critical path recorded", id)
	}
	if err := res.CritPath.Check(); err != nil {
		t.Fatalf("%s: critical path invariants: %v", id, err)
	}
	if err := res.CritPath.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: critpath JSON: %v", id, err)
	}
	c.critpath = append([]byte(nil), buf.Bytes()...)
	c.metrics = res.Metrics.Metrics
	return c
}

func TestGOMAXPROCSDeterminism(t *testing.T) {
	ids := ProfileIDs()
	if testing.Short() {
		ids = []string{"E2", "E5"}
	}
	settings := gomaxprocsSettings()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			var base *simCapture
			baseGMP := 0
			for _, gmp := range settings {
				runtime.GOMAXPROCS(gmp)
				c := captureRun(t, id)
				if base == nil {
					base, baseGMP = c, gmp
					continue
				}
				if c.times != base.times {
					t.Errorf("gomaxprocs %d vs %d: elapsed times differ:\n%s\n%s", gmp, baseGMP, c.times, base.times)
				}
				if c.clocks != base.clocks {
					t.Errorf("gomaxprocs %d vs %d: per-processor clocks differ", gmp, baseGMP)
				}
				if c.links != base.links {
					t.Errorf("gomaxprocs %d vs %d: link loads differ:\n%s\n%s", gmp, baseGMP, c.links, base.links)
				}
				if !bytes.Equal(c.profile, base.profile) {
					t.Errorf("gomaxprocs %d vs %d: profile JSON differs (%d vs %d bytes)",
						gmp, baseGMP, len(c.profile), len(base.profile))
				}
				if !bytes.Equal(c.chrome, base.chrome) {
					t.Errorf("gomaxprocs %d vs %d: Chrome trace differs (%d vs %d bytes)",
						gmp, baseGMP, len(c.chrome), len(base.chrome))
				}
				if !bytes.Equal(c.critpath, base.critpath) {
					t.Errorf("gomaxprocs %d vs %d: critical path differs (%d vs %d bytes)",
						gmp, baseGMP, len(c.critpath), len(base.critpath))
				}
				if len(c.metrics) != len(base.metrics) {
					t.Fatalf("gomaxprocs %d vs %d: metric count differs (%d vs %d)",
						gmp, baseGMP, len(c.metrics), len(base.metrics))
				}
				for i := range c.metrics {
					got, want := c.metrics[i], base.metrics[i]
					if got.Name != want.Name {
						t.Fatalf("gomaxprocs %d vs %d: metric order differs at %d: %s vs %s",
							gmp, baseGMP, i, got.Name, want.Name)
					}
					if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
						t.Errorf("gomaxprocs %d vs %d: metric %s differs:\n  %+v\n  %+v",
							gmp, baseGMP, got.Name, got, want)
					}
				}
			}
		})
	}
}

// TestHostSchedMetricsExcluded pins the quarantine boundary at empty:
// the host-side scheduler and pool counters exist in the registry (so
// operators see them) and the determinism comparison keeps every one.
func TestHostSchedMetricsExcluded(t *testing.T) {
	c := captureRun(t, "E2")
	compared := make(map[string]bool)
	for _, mv := range c.metrics {
		compared[mv.Name] = true
	}
	for _, name := range []string{
		"vmprim_sched_recv_parks_total",
		"vmprim_pool_gets_total",
		"vmprim_pool_hits_total",
		"vmprim_pool_hit_rate",
	} {
		if !compared[name] {
			t.Errorf("the determinism comparison does not cover %s", name)
		}
	}
}
