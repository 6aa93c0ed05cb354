package main

import (
	"encoding/json"
	"os"
	"testing"

	"vmprim/internal/bench"
)

func TestRunOnePrintsTable(t *testing.T) {
	// A fast experiment end-to-end through the CLI's runner path.
	e, ok := bench.ByID("F1")
	if !ok {
		t.Fatal("F1 missing")
	}
	if err := runOne(e, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneSurfacesErrors(t *testing.T) {
	bad := bench.Experiment{ID: "ZZ", Title: "broken", Run: func() (*bench.Table, error) {
		return nil, errTest
	}}
	if err := runOne(bad, false); err == nil {
		t.Fatal("error swallowed")
	}
}

// -profile honors -model: the iPSC profile of E4 is a run of a
// different machine than the CM2 one, and exactly the run RunSpec gives
// for that model.
func TestProfileHonorsModel(t *testing.T) {
	elapsed := func(model string) float64 {
		t.Helper()
		out := captureStdout(t, func() error { return runProfile("E4", model, true, "-", "", "") })
		var doc struct {
			Elapsed float64 `json:"elapsed_us"`
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("-model %s: profile JSON: %v", model, err)
		}
		return doc.Elapsed
	}
	ipsc, cm2 := elapsed("ipsc"), elapsed("cm2")
	if ipsc == cm2 {
		t.Fatalf("-model ipsc profiled the CM2 machine: both ran %g simulated us", ipsc)
	}
	want, err := bench.RunSpec{Exp: "E4", Model: "ipsc"}.Run(bench.ProfileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if last := float64(want.Times[len(want.Times)-1]); ipsc != last {
		t.Fatalf("-profile E4 -model ipsc ran %g simulated us, RunSpec.Run %g", ipsc, last)
	}
	if err := runProfile("E4", "lognormal", true, "-", "", ""); err == nil {
		t.Fatal("unknown cost model accepted")
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test failure" }
