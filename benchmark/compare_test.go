package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", want: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", want: 0.10}
	retained := metricDef{name: "retained_kb_per_op", better: "lower", want: 0.10, floor: 1}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002} }
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(10), steady(10), "ok"},
		{"within bound", lower, steady(10), steady(10.9), "ok"},
		{"beyond bound", lower, steady(10), steady(11.2), "worse"},
		{"better", lower, steady(10), steady(5), "ok"},
		{"rate within bound", higher, steady(100), steady(91), "ok"},
		{"rate beyond bound", higher, steady(100), steady(88), "worse"},
		{"rate better", higher, steady(100), steady(150), "ok"},
		{"noisy and overlapping", lower, []float64{8, 10, 12, 9, 11}, []float64{9, 11, 13, 10, 8.5}, "unresolved"},
		{"noisy but every B better", lower, []float64{8, 10, 12, 9, 11}, []float64{5, 6, 7, 4, 7.5}, "ok"},
		{"noisy but every B worse", lower, []float64{8, 10, 12, 9, 11}, []float64{15, 16, 19, 14, 13}, "worse"},
		{"single runs", lower, []float64{10}, []float64{10.5}, "ok"},
		{"beyond the share, under the floor", retained, steady(2), steady(2.9), "ok"},
		{"beyond share and floor", retained, steady(100), steady(112), "worse"},
		{"leak-free baseline, under the floor", retained, []float64{0, -0.1, 0.1}, []float64{0.4, 0.5, 0.6}, "ok"},
		{"leak-free baseline, a leak appears", retained, []float64{0, -0.1, 0.1}, []float64{40, 41, 42}, "worse"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func resultWith(workload string, p50, simUs float64, failed int) *runResult {
	res := &runResult{
		Workload: workload, Seed: 1, Correct: failed == 0, Attempted: 10, Failed: failed,
		Metrics: map[string]metricValue{}, Exact: map[string]float64{"sim_us_per_op": simUs},
		Info: map[string]float64{"op_p90_ms": 2 * p50, "retained_kb_per_op": 0},
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: 1, Unit: m.unit}
	}
	res.Metrics["op_p50_ms"] = metricValue{Value: p50, Unit: "ms"}
	return res
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs ...*runResult) string {
		path := filepath.Join(dir, name)
		for _, r := range runs {
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", resultWith("prims", 10, 7256, 0), resultWith("route", 100, 5, 0))
	for _, tc := range []struct {
		name   string
		other  string
		status int
		say    string
	}{
		{"agree", write("same.json", resultWith("prims", 10.4, 7256, 0), resultWith("route", 99, 5, 0)), 0, "exact counts agree"},
		{"slower", write("slow.json", resultWith("prims", 13, 7256, 0)), 1, "worse"},
		{"sim moved", write("sim.json", resultWith("prims", 10, 7257, 0)), 1, "exact counts DIFFER"},
		{"failed ops", write("fail.json", resultWith("prims", 10, 7256, 3)), 1, "3 ops FAILED"},
		{"another size", write("size.json", func() *runResult {
			r := resultWith("prims", 10, 7256, 0)
			r.Attempted = 20
			return r
		}()), 1, "op counts DIFFER"},
	} {
		var out, errs bytes.Buffer
		got := run([]string{"-compare", base, tc.other}, &out, &errs)
		if got != tc.status || !strings.Contains(out.String(), tc.say) {
			t.Errorf("%s: status %d (want %d), output lacks %q:\n%s%s", tc.name, got, tc.status, tc.say, out.String(), errs.String())
		}
	}
	// The table gives both values, the ratio with its base and the bound.
	var out, errs bytes.Buffer
	run([]string{"-compare", base, base}, &out, &errs)
	// The issue's bounds, not BENCHMARK.json's, and its two names that
	// BENCHMARK.json cannot carry.
	for _, want := range []string{"base of every ratio", "op_p50_ms", "1.0000", "10%", "ok", "op_p90_ms", "retained_kb_per_op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if got := run([]string{"-compare", base}, &out, &errs); got == 0 {
		t.Error("-compare with one file must fail")
	}
	if got := run([]string{"-compare", base, filepath.Join(dir, "absent.json")}, &out, &errs); got == 0 {
		t.Error("-compare with a missing file must fail")
	}
}

// A metric that is not a finite number has no JSON form. The run must
// fail loudly, not hand the driver an empty last line.
func TestPrintRefusesNonFiniteMetric(t *testing.T) {
	res := resultWith("prims", 10, 7256, 0)
	if err := res.print(io.Discard); err != nil {
		t.Fatalf("finite metrics: %v", err)
	}
	res.Metrics["ops_per_s"] = metricValue{Value: math.Inf(1), Unit: "1/s"}
	if err := res.print(io.Discard); err == nil {
		t.Error("print accepted an infinite metric")
	}
}
