package collorder_test

import (
	"path/filepath"
	"testing"

	"vmprim/internal/analysis/analysistest"
	"vmprim/internal/analysis/collorder"
)

// TestCollOrder also covers identity-guarded collectives (spmd) and
// example code that only touches the vmprim facade (exfix), analyzed
// through the facade re-export rules in vmlib.
func TestCollOrder(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata"), collorder.Analyzer,
		"vmprim/internal/apps/corder", "vmprim/internal/apps/spmd", "vmprim/examples/exfix")
}

// TestCrossPackageFacts drives the same fixtures with and without
// dependency facts: the identity taint of xhelp.Quadrant and the
// collectiveness of xhelp.SumAll are known only through package
// facts, so the diagnostics must appear when facts flow and vanish
// when they do not.
func TestCrossPackageFacts(t *testing.T) {
	testdata := filepath.Join("..", "testdata")
	for _, path := range []string{"vmprim/internal/apps/xuse", "vmprim/internal/apps/spmdx"} {
		analysistest.Run(t, testdata, collorder.Analyzer, path)
		res, _ := analysistest.Result(t, testdata, collorder.Analyzer, path, false)
		for _, f := range res.Findings {
			t.Errorf("with facts disabled, cross-package diagnostic still reported: %s", f)
		}
	}
}
