package main

import "testing"

// serve.queue_wait_ms is a mean over the sessions that left spans. It
// must read the same whether every session of the loop was traced (serve
// is not the subject of the run) or every other one (it is): the
// server's counters cover every session either way.
func TestQueueWaitIndependentOfTraceMode(t *testing.T) {
	const sessions, submitMs, waitMs, armedMs = 8, 1.0, 2.5, 9.0
	summary := func(traced int) spanSummary {
		sum := spanSummary{durMs: map[string][]float64{}}
		for s := 0; s < traced; s++ {
			sum.durMs["cycle"] = append(sum.durMs["cycle"], 30)
			for range sessionSpecs {
				sum.durMs["serve.submit"] = append(sum.durMs["serve.submit"], submitMs)
				sum.durMs["serve.wait"] = append(sum.durMs["serve.wait"], waitMs)
			}
		}
		return sum
	}
	delta := map[string]float64{
		"sessions":                sessions,
		"vmprimd_runs_done_total": float64(sessions * len(sessionSpecs)),
	}
	want := float64(len(sessionSpecs))*(submitMs+waitMs) - armedMs
	for _, tc := range []struct {
		mode   string
		traced int
	}{{"traceAll", sessions}, {"traceAlternate", sessions / 2}} {
		out := map[string]float64{"bench.runon_armed_ms": armedMs}
		if err := (&serveInst{}).layerMetrics(delta, summary(tc.traced), out); err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if got := out["serve.queue_wait_ms"]; !near(got, want) {
			t.Errorf("%s: serve.queue_wait_ms = %v, want %v", tc.mode, got, want)
		}
	}
}
