// Package metrics is a small, dependency-free metrics registry for the
// simulator: named counters, gauges and fixed-bucket histograms with a
// per-run snapshot exported as JSON or Prometheus text exposition
// format.
//
// The registry is deliberately not a hot-path structure. The machine
// keeps raw per-processor counters (plain int64 fields, one goroutine
// each) during a run and folds them into the registry once per Run;
// the registry's own synchronization (atomics plus one mutex per
// histogram) therefore costs a handful of operations per run, not per
// message. Counters are cumulative over the life of the registry —
// Prometheus semantics — while gauges describe the most recent run.
//
// Snapshots are deterministic: metrics appear in registration order,
// so two snapshots of identical state render byte-identically.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down; it holds the most recent
// value set.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value set (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets, in the
// Prometheus style: bucket i counts observations <= Bounds[i], with a
// final implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last is +Inf
	sum    float64
	n      int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// AddBuckets folds pre-binned counts into the histogram: counts[i] is
// the number of observations in non-cumulative bucket i (the machine
// bins per processor during a run and merges here once per run). The
// slice must have len(Bounds())+1 entries; sum is the total of the
// underlying observed values.
func (h *Histogram) AddBuckets(counts []int64, sum float64) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("metrics: AddBuckets got %d buckets, histogram has %d", len(counts), len(h.counts)))
	}
	h.mu.Lock()
	for i, c := range counts {
		h.counts[i] += c
		h.n += c
	}
	h.sum += sum
	h.mu.Unlock()
}

// Bounds returns the upper bounds of the finite buckets.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// metricKind tags a registered metric.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered metric of any kind.
type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// Registry holds named metrics and produces snapshots. Registration is
// expected at setup time; double registration of a name panics.
type Registry struct {
	mu     sync.Mutex
	order  []*metric
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) {
	if !ValidName(m.name) {
		panic("metrics: invalid metric name " + m.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic("metrics: duplicate metric " + m.name)
	}
	r.byName[m.name] = m
	r.order = append(r.order, m)
}

// ValidName reports whether name is a legal Prometheus metric name,
// [a-zA-Z_:][a-zA-Z0-9_:]*. Names cannot be escaped in the exposition
// format, only rejected, so registration refuses them up front.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a histogram with the given finite
// bucket upper bounds (ascending); a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending: " + name)
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// Le is the bucket's inclusive upper bound; +Inf on the last.
	Le float64 `json:"-"`
	// Count is the cumulative count of observations <= Le.
	Count int64 `json:"count"`
}

// MarshalJSON renders the bound the way Prometheus labels it ("+Inf"
// for the last bucket), since JSON numbers cannot carry infinities.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	}{promFloat(b.Le), b.Count})
}

// MetricValue is one metric in a snapshot.
type MetricValue struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Help string `json:"help,omitempty"`
	// Value carries counter and gauge values (counters as exact
	// integers rendered in float64, which is lossless below 2^53).
	Value float64 `json:"value,omitempty"`
	// Buckets, Sum and Count carry histogram state.
	Buckets []BucketCount `json:"buckets,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Count   int64         `json:"count,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric, in
// registration order.
type Snapshot struct {
	Metrics []MetricValue `json:"metrics"`
}

// Snapshot captures the current value of every metric.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	order := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	s := &Snapshot{Metrics: make([]MetricValue, 0, len(order))}
	for _, m := range order {
		mv := MetricValue{Name: m.name, Type: m.kind.String(), Help: m.help}
		switch m.kind {
		case kindCounter:
			mv.Value = float64(m.counter.Value())
		case kindGauge:
			mv.Value = m.gauge.Value()
		case kindHistogram:
			h := m.hist
			h.mu.Lock()
			cum := int64(0)
			mv.Buckets = make([]BucketCount, len(h.counts))
			for i, c := range h.counts {
				cum += c
				le := math.Inf(1)
				if i < len(h.bounds) {
					le = h.bounds[i]
				}
				mv.Buckets[i] = BucketCount{Le: le, Count: cum}
			}
			mv.Sum = h.sum
			mv.Count = h.n
			h.mu.Unlock()
		}
		s.Metrics = append(s.Metrics, mv)
	}
	return s
}

// Reset zeroes every counter, gauge and histogram (buckets, sum and
// count) and keeps every registration, so the registry reads as a
// freshly built one with the same metrics.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.order {
		switch m.kind {
		case kindCounter:
			m.counter.v.Store(0)
		case kindGauge:
			m.gauge.bits.Store(0)
		case kindHistogram:
			h := m.hist
			h.mu.Lock()
			clear(h.counts)
			h.sum, h.n = 0, 0
			h.mu.Unlock()
		}
	}
}

// Value returns the snapshot value of the named counter or gauge (for
// histograms, the observation count) and whether the name exists.
func (s *Snapshot) Value(name string) (float64, bool) {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			if s.Metrics[i].Type == "histogram" {
				return float64(s.Metrics[i].Count), true
			}
			return s.Metrics[i].Value, true
		}
	}
	return 0, false
}

// WriteJSON writes the snapshot as an indented JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text
// exposition format (version 0.0.4). It appends every number into one
// reused buffer and writes text straight into the bufio.Writer, so a
// document costs the writer and that buffer, however many metrics it
// holds.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	num := make([]byte, 0, 32)
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(m.Name)
			bw.WriteByte(' ')
			helpEscaper.WriteString(bw, m.Help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(m.Name)
		bw.WriteByte(' ')
		bw.WriteString(m.Type)
		bw.WriteByte('\n')
		switch m.Type {
		case "histogram":
			for _, b := range m.Buckets {
				// A rendered bound holds digits, a sign, a point, an
				// exponent or Inf: nothing a label value escapes.
				bw.WriteString(m.Name)
				bw.WriteString(`_bucket{le="`)
				bw.Write(appendPromFloat(num[:0], b.Le))
				bw.WriteString(`"} `)
				bw.Write(strconv.AppendInt(num[:0], b.Count, 10))
				bw.WriteByte('\n')
			}
			writeSample(bw, m.Name, "_sum", appendPromFloat(num[:0], m.Sum))
			writeSample(bw, m.Name, "_count", strconv.AppendInt(num[:0], m.Count, 10))
		default:
			writeSample(bw, m.Name, "", appendPromFloat(num[:0], m.Value))
		}
	}
	return bw.Flush()
}

// writeSample writes the exposition line "name+suffix value".
func writeSample(bw *bufio.Writer, name, suffix string, value []byte) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	bw.WriteByte(' ')
	bw.Write(value)
	bw.WriteByte('\n')
}

// The exposition format is line-oriented, so the only characters that
// can break it are escaped: backslash and line feed in HELP text.
// Anything else passes through verbatim (Go's %q would emit \t and \u
// escapes Prometheus parsers do not understand).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// promFloat renders a float the way Prometheus expects: integral
// values without an exponent, +Inf spelled literally.
func promFloat(v float64) string { return string(appendPromFloat(nil, v)) }

// appendPromFloat appends promFloat(v) to dst.
func appendPromFloat(dst []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(dst, "+Inf"...)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
