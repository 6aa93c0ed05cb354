package metrics

import (
	"bytes"
	"testing"
)

// buildSnap makes a registry with one of each kind and snapshots it.
func buildSnap(c int64, g float64, obs []float64) *Snapshot {
	r := NewRegistry()
	cnt := r.Counter("runs_total", "runs")
	gau := r.Gauge("last_elapsed_us", "elapsed")
	h := r.Histogram("latency_us", "latency", []float64{1, 10, 100})
	cnt.Add(c)
	gau.Set(g)
	for _, v := range obs {
		h.Observe(v)
	}
	return r.Snapshot()
}

func TestMerge(t *testing.T) {
	a := buildSnap(3, 1.5, []float64{0.5, 5, 50})
	b := buildSnap(4, 2.5, []float64{5, 500})
	m := Merge(a, b)

	if v, ok := m.Value("runs_total"); !ok || v != 7 {
		t.Fatalf("merged counter = %v, %v; want 7", v, ok)
	}
	if v, ok := m.Value("last_elapsed_us"); !ok || v != 2.5 {
		t.Fatalf("merged gauge = %v, %v; want last-wins 2.5", v, ok)
	}
	var h *MetricValue
	for i := range m.Metrics {
		if m.Metrics[i].Name == "latency_us" {
			h = &m.Metrics[i]
		}
	}
	if h == nil || h.Count != 5 {
		t.Fatalf("merged histogram count = %+v, want 5 observations", h)
	}
	wantCum := []int64{1, 3, 4, 5} // <=1: {0.5}; <=10: +{5,5}; <=100: +{50}; +Inf: +{500}
	for i, b := range h.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("merged bucket %d = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if want := 0.5 + 5 + 50 + 5 + 500; h.Sum != want {
		t.Fatalf("merged sum = %g, want %g", h.Sum, want)
	}

	// Inputs must be untouched (no aliasing of bucket slices).
	if a.Metrics[2].Buckets[0].Count != 1 || b.Metrics[2].Buckets[0].Count != 0 {
		t.Fatal("Merge mutated an input snapshot")
	}
	// Merging a nil snapshot is a no-op; merging nothing is empty.
	if got := Merge(nil, a); len(got.Metrics) != len(a.Metrics) {
		t.Fatal("Merge(nil, a) lost metrics")
	}
	if got := Merge(); len(got.Metrics) != 0 {
		t.Fatal("Merge() not empty")
	}
}

func TestMergeTypeMismatchPanics(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("x", "")
	rb.Gauge("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/gauge merge of the same name")
		}
	}()
	Merge(ra.Snapshot(), rb.Snapshot())
}

// A registry that has counted, set and observed reads like a freshly
// built one after Reset, and keeps counting from zero afterwards.
func TestReset(t *testing.T) {
	build := func() (*Registry, *Counter, *Gauge, *Histogram) {
		r := NewRegistry()
		return r, r.Counter("runs_total", "runs"), r.Gauge("last_elapsed_us", "elapsed"),
			r.Histogram("latency_us", "latency", []float64{1, 10, 100})
	}
	render := func(r *Registry) string {
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fresh, _, _, _ := build()
	used, c, g, h := build()
	c.Add(7)
	g.Set(9.5)
	h.Observe(50)
	h.AddBuckets([]int64{1, 0, 2, 1}, 600)

	used.Reset()
	if got, want := render(used), render(fresh); got != want {
		t.Fatalf("after Reset:\n%s\nfresh registry:\n%s", got, want)
	}
	c.Add(2)
	h.Observe(5)
	if v, _ := used.Snapshot().Value("runs_total"); v != 2 {
		t.Fatalf("counter after Reset and Add(2) = %v, want 2", v)
	}
	if v, _ := used.Snapshot().Value("latency_us"); v != 1 {
		t.Fatalf("histogram count after Reset and one Observe = %v, want 1", v)
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{10, 20, 40})
	// 10 observations uniform in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	s := r.Snapshot()

	// Median: rank 10 lands exactly at the top of bucket (0,10].
	if q, ok := s.Quantile("lat", 0.5); !ok || q != 10 {
		t.Fatalf("p50 = %v, %v; want 10", q, ok)
	}
	// p75: rank 15, halfway through (10,20] -> 15.
	if q, ok := s.Quantile("lat", 0.75); !ok || q != 15 {
		t.Fatalf("p75 = %v, %v; want 15", q, ok)
	}
	// p100 clamps to the owning bucket's upper bound.
	if q, ok := s.Quantile("lat", 1); !ok || q != 20 {
		t.Fatalf("p100 = %v, %v; want 20", q, ok)
	}

	// Observations beyond the last finite bound clamp to it.
	h.Observe(1e9)
	s = r.Snapshot()
	if q, ok := s.Quantile("lat", 0.999); !ok || q != 40 {
		t.Fatalf("p99.9 with +Inf mass = %v, %v; want clamp to 40", q, ok)
	}

	// Missing / wrong-kind / empty all answer false.
	if _, ok := s.Quantile("nope", 0.5); ok {
		t.Fatal("quantile of a missing name answered true")
	}
	r2 := NewRegistry()
	r2.Counter("c", "")
	r2.Histogram("empty", "", []float64{1})
	s2 := r2.Snapshot()
	if _, ok := s2.Quantile("c", 0.5); ok {
		t.Fatal("quantile of a counter answered true")
	}
	if _, ok := s2.Quantile("empty", 0.5); ok {
		t.Fatal("quantile of an empty histogram answered true")
	}
}
