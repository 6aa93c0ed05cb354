package main

import (
	"net/http/httptest"
	"testing"

	"vmprim/internal/bench"
	"vmprim/internal/serve"
	"vmprim/internal/testutil"
)

// newLoadTarget stands up the same in-process server main builds,
// behind httptest so the harness exercises real HTTP.
func newLoadTarget(t *testing.T) string {
	t.Helper()
	before := testutil.Snapshot()
	t.Cleanup(func() { testutil.CheckLeaks(t, before) })
	srv := serve.New(serve.Options{Workers: 2, RetainRuns: 64, QueueDepth: 64, PoolMachines: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// TestDriveInProcess runs a miniature load session end to end and
// checks the latency document drive assembles: counts, percentile
// ordering and the histogram invariants the check.sh smoke asserts on
// the document a real burst writes.
func TestDriveInProcess(t *testing.T) {
	base := newLoadTarget(t)
	spec, err := bench.RunSpec{Exp: "E1", D: 3, N: 32}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	const total, conc = 12, 4
	doc, driveErr := drive(base, spec, total, conc)
	if driveErr != nil {
		t.Fatal(driveErr)
	}
	res := doc.Results
	if res.Completed != total || res.Failed != 0 {
		t.Fatalf("completed %d / failed %d, want %d/0", res.Completed, res.Failed, total)
	}
	lat := res.LatencyUs
	if !(0 < lat.P50 && lat.P50 <= lat.P95 && lat.P95 <= lat.P99 && lat.P99 <= res.MaxUs) {
		t.Fatalf("percentiles not ordered: %+v, max %g", lat, res.MaxUs)
	}
	if res.MeanUs <= 0 || res.WallSecs <= 0 || res.RunsPerSec <= 0 {
		t.Fatalf("degenerate aggregates: %+v", res)
	}
	if len(res.Counts) != len(serve.LatencyBoundsUs)+1 {
		t.Fatalf("histogram has %d counts for %d bounds", len(res.Counts), len(serve.LatencyBoundsUs))
	}
	if inf := res.Counts[len(res.Counts)-1]; inf != total {
		t.Fatalf("+Inf bucket holds %d, want the full %d sample", inf, total)
	}
	if doc.Config.Runs != total || doc.Config.Concurrency != conc {
		t.Fatalf("config block drifted: %+v", doc.Config)
	}
}

// TestDriveReportsFailures: a spec the server rejects must be counted
// as failed and surfaced as drive's error, never silently completed.
func TestDriveReportsFailures(t *testing.T) {
	base := newLoadTarget(t)
	const total, conc = 3, 2
	doc, driveErr := drive(base, bench.RunSpec{Exp: "E9"}, total, conc)
	if driveErr == nil {
		t.Fatal("drive accepted a spec the server rejects")
	}
	if doc.Results.Failed != total || doc.Results.Completed != 0 {
		t.Fatalf("failed %d / completed %d, want %d/0",
			doc.Results.Failed, doc.Results.Completed, total)
	}
}
