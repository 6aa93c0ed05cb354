package metrics

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

// The exposition format is line-oriented: a HELP text containing a
// line feed or backslash must come out escaped, on one line.
func TestPrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("vm_weird_total", "first line\nsecond line with a \\ backslash").Add(1)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# HELP vm_weird_total first line\nsecond line with a \\ backslash`
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "vm_weird_total") {
			t.Fatalf("stray line %q: unescaped newline split the HELP text", line)
		}
	}
}

// Metric names cannot be escaped, only rejected: registration panics
// on anything outside [a-zA-Z_:][a-zA-Z0-9_:]*.
func TestInvalidMetricNamesRejected(t *testing.T) {
	for _, name := range []string{"", "9lives", "has-dash", "has space", "nl\n", "ütf"} {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true", name)
		}
		mustPanic(t, "register "+strconv.Quote(name), func() { NewRegistry().Counter(name, "") })
	}
	for _, name := range []string{"x", "_x", ":x", "vm_msgs_total", "a1:b_2"} {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false", name)
		}
	}
}

// Two snapshots of identical registry state render byte-identically,
// and metrics appear in registration order, not map order.
func TestPrometheusDeterministicOrdering(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("vm_z_total", "registered first").Add(3)
		r.Gauge("vm_a_gauge", "registered second").Set(1.5)
		r.Histogram("vm_m_hist", "registered third", []float64{1}).Observe(2)
		return r
	}
	var first bytes.Buffer
	if err := build().Snapshot().WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := build().Snapshot().WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", first.String(), again.String())
		}
	}
	out := first.String()
	if z, a := strings.Index(out, "vm_z_total"), strings.Index(out, "vm_a_gauge"); z > a {
		t.Fatalf("registration order not preserved:\n%s", out)
	}
}

// parseExposition is a minimal text-format parser for the round-trip
// test: sample lines become name -> value, with histogram buckets
// keyed as name_bucket{le="..."}.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value %q: %v", key, val, err)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
	}
	return samples
}

// Everything the snapshot holds survives a trip through the text
// format: write, re-parse, compare against the snapshot's own values.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("vm_msgs_total", "messages").Add(1234)
	r.Gauge("vm_ratio", "a fraction").Set(0.625)
	h := r.Histogram("vm_words", "payload words", []float64{1, 8, 64})
	for _, v := range []float64{0.5, 4, 4, 100} {
		h.Observe(v)
	}

	snap := r.Snapshot()
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())

	want := map[string]float64{
		"vm_msgs_total":              1234,
		"vm_ratio":                   0.625,
		`vm_words_bucket{le="1"}`:    1,
		`vm_words_bucket{le="8"}`:    3,
		`vm_words_bucket{le="64"}`:   3,
		`vm_words_bucket{le="+Inf"}`: 4,
		"vm_words_sum":               108.5,
		"vm_words_count":             4,
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(samples), len(want), samples)
	}
	for key, wv := range want {
		if gv, ok := samples[key]; !ok || gv != wv {
			t.Errorf("sample %s = %v (present %v), want %v", key, gv, ok, wv)
		}
	}
}

// WritePrometheus appends numbers into one buffer and writes text
// straight into its bufio.Writer, so a document costs a fixed handful
// of allocations however many metrics it holds, no more than the JSON
// writer's for the same snapshot. With fmt.Fprintf and a Sprintf per
// number a run's document cost 185 against the JSON's 49.
func TestWritePrometheusAllocs(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter("vm_counter_"+strconv.Itoa(i)+"_total", "a counter").Add(int64(i) * 1001)
		r.Gauge("vm_gauge_"+strconv.Itoa(i), "a gauge\nover two lines").Set(float64(i) / 3)
	}
	h := r.Histogram("vm_words", "payload words", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	for v := 0.5; v < 2000; v *= 1.7 {
		h.Observe(v)
	}
	snap := r.Snapshot()
	prom := testing.AllocsPerRun(20, func() {
		if err := snap.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	js := testing.AllocsPerRun(20, func() {
		if err := snap.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per document: Prometheus %.0f, JSON %.0f", prom, js)
	if prom > js {
		t.Fatalf("WritePrometheus allocates %.0f objects per document, more than WriteJSON's %.0f", prom, js)
	}
}
