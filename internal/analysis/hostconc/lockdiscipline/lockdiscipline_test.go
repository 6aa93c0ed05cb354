package lockdiscipline_test

import (
	"path/filepath"
	"testing"

	"vmprim/internal/analysis/analysistest"
	"vmprim/internal/analysis/hostconc/lockdiscipline"
)

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "..", "testdata"), lockdiscipline.Analyzer,
		"vmprim/internal/serve/hclock")
}

// TestPoolFileScope: inside the hypercube package only machinepool.go
// is host-concurrent; the identical violation in helper.go must stay
// silent.
func TestPoolFileScope(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "..", "testdata"), lockdiscipline.Analyzer,
		"vmprim/internal/hypercube/hcpool")
}

// TestSuggestedFixes validates the defer-Unlock insertion against the
// .golden file and proves applying it twice changes nothing.
func TestSuggestedFixes(t *testing.T) {
	analysistest.RunWithSuggestedFixes(t, filepath.Join("..", "..", "testdata"), lockdiscipline.Analyzer,
		"vmprim/internal/serve/hclockfix")
}

// TestCrossPackageFacts: the blocking classification of hcdep's
// helpers crosses the package boundary as hostconc facts; the
// diagnostics must appear with facts and vanish without them.
func TestCrossPackageFacts(t *testing.T) {
	testdata := filepath.Join("..", "..", "testdata")
	analysistest.Run(t, testdata, lockdiscipline.Analyzer, "vmprim/internal/serve/hcx")

	findings := analysistest.Findings(t, testdata, lockdiscipline.Analyzer,
		"vmprim/internal/serve/hcx", false)
	for _, f := range findings {
		t.Errorf("with facts disabled, cross-package diagnostic still reported: %s", f)
	}
}
