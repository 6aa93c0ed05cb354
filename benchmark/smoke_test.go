package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// driverLine is the object the benchmark driver reads off the last line
// of standard output.
type driverLine struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// lastLines returns the result objects a run printed, one per workload.
func lastLines(t *testing.T, stdout string) []driverLine {
	t.Helper()
	var lines []driverLine
	for _, l := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var d driverLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("result line is not the driver's object: %v\n%s", err, l)
		}
		if d.Correct == nil || d.Attempted == nil || d.Failed == nil || d.Metrics == nil {
			t.Fatalf("result line lacks one of correct, attempted, failed, metrics:\n%s", l)
		}
		lines = append(lines, d)
	}
	if !strings.HasPrefix(stdout[strings.LastIndex(strings.TrimSpace(stdout), "\n")+1:], "{") {
		t.Fatal("the last line of standard output is not the result object")
	}
	return lines
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkMetrics(t *testing.T, d driverLine, table []metricDef) {
	t.Helper()
	if len(d.Metrics) != len(table) {
		t.Errorf("%d metrics reported, table has %d", len(d.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := d.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
		}
		if v.Unit != m.unit {
			t.Errorf("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
		}
		if !metricName.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", m.name)
		}
	}
}

// Every workload passes its oracle on the golden seed, at GOMAXPROCS 1
// and at the host's default alike: simulated times, message and word
// counts and served documents do not depend on host parallelism.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		var out, errs bytes.Buffer
		status := run([]string{"-smoke", "-workload", "all", "-seed", "1"}, &out, &errs)
		runtime.GOMAXPROCS(prev)
		if status != 0 {
			t.Fatalf("GOMAXPROCS %d: exit status %d\n%s%s", procs, status, out.String(), errs.String())
		}
		lines := lastLines(t, out.String())
		if len(lines) != len(workloads) {
			t.Fatalf("GOMAXPROCS %d: %d result lines for %d workloads", procs, len(lines), len(workloads))
		}
		for i, d := range lines {
			if !*d.Correct || *d.Failed != 0 || *d.Attempted != 2*workloads[i].clients {
				t.Errorf("GOMAXPROCS %d, %s: correct %v, attempted %d, failed %d",
					procs, workloads[i].name, *d.Correct, *d.Attempted, *d.Failed)
			}
			checkMetrics(t, d, endToEnd)
			for name, v := range d.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workloads[i].name, name, v.Value)
				}
			}
		}
	}
}

// A traced run reports every per-layer metric whichever workload it is
// about, writes its spans, and its cycle spans account for the cycle.
func TestSmokeTraced(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var out, errs bytes.Buffer
	status := run([]string{"-smoke", "-workload", "route", "-seed", "2", "-trace", "1", "-trace-out", traceFile}, &out, &errs)
	if status != 0 {
		t.Fatalf("exit status %d\n%s%s", status, out.String(), errs.String())
	}
	d := lastLines(t, out.String())[0]
	if !*d.Correct || *d.Failed != 0 {
		t.Errorf("correct %v, failed %d", *d.Correct, *d.Failed)
	}
	checkMetrics(t, d, perLayer)
	if c := d.Metrics["cycle_span_coverage"].Value; c < 0.95 {
		t.Errorf("children cover %.3f of the cycle spans, want at least 0.95", c)
	}
	if got := d.Metrics["serve.runs_done"].Value; got != float64(2*serveClients*len(sessionSpecs)) {
		t.Errorf("serve.runs_done = %v for %d sessions", got, 2*serveClients)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// Two ops, every other one traced: one cycle span with the route
	// cycle's six calls below it.
	if doc.Workload != "route" || len(doc.Spans) != 7 {
		t.Errorf("trace file holds %d spans of %q, want 7 of route", len(doc.Spans), doc.Workload)
	}
}

// Perturbing one expected simulated time, or one expected document
// hash, in a copy of the golden data makes every op fail: counted in
// failed, reported as incorrect, non-zero exit.
func TestPerturbedOracleFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		workload string
		perturb  func(c []callRec)
	}{
		{"prims", func(c []callRec) { c[4].SimUs++ }},
		{"serve", func(c []callRec) {
			for i := range c {
				if strings.HasSuffix(c[i].Call, "/critpath") {
					c[i].SHA256 = strings.Repeat("0", 64)
					return
				}
			}
		}},
	} {
		gold, err := loadGolden("")
		if err != nil {
			t.Fatal(err)
		}
		tc.perturb(gold.cycle(tc.workload, 1))
		path := filepath.Join(t.TempDir(), "golden.json")
		if err := gold.write(path); err != nil {
			t.Fatal(err)
		}
		var out, errs bytes.Buffer
		status := run([]string{"-smoke", "-workload", tc.workload, "-seed", "1", "-golden", path}, &out, &errs)
		if status == 0 {
			t.Errorf("%s: exit status 0 with a perturbed oracle", tc.workload)
		}
		d := lastLines(t, out.String())[0]
		if *d.Correct || *d.Failed != *d.Attempted || *d.Attempted == 0 {
			t.Errorf("%s: correct %v, failed %d of %d; want every op failed", tc.workload, *d.Correct, *d.Failed, *d.Attempted)
		}
		if !strings.Contains(out.String(), "failed_share") || !strings.Contains(errs.String(), "oracle has") {
			t.Errorf("%s: output does not report the failed share and the oracle difference:\n%s", tc.workload, errs.String())
		}
		// A seed the golden file does not cover is its own oracle (the
		// first cycle) and passes.
		if status := run([]string{"-smoke", "-workload", tc.workload, "-seed", "7", "-golden", path}, &out, &errs); status != 0 {
			t.Errorf("%s: seed 7 failed against its own first cycle", tc.workload)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-ops", "2"}, {"stray"}, {"-golden", "/nonexistent/golden.json"},
	} {
		var out, errs bytes.Buffer
		if status := run(args, &out, &errs); status == 0 {
			t.Errorf("%v: exit status 0", args)
		}
	}
}

// BENCHMARK.json at the repository root must say what the tables here
// say: names, units, directions, bounds, workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, table has %q (why must agree and fit 200 characters)", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (jm{m.name, m.unit, m.better, m.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, table has %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if doc.RunSeconds != 20 {
		t.Errorf("run_seconds = %d; the op counts are sized for 20", doc.RunSeconds)
	}
}
