package vmprim

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the nested vmprim/benchmark
// module. It imports vmprim/internal/... through a replace directive,
// but ./... stops at its go.mod, so without this test a rename under
// internal/ breaks the benchmark and `go build ./... && go test ./...`
// stays green. GOWORK=off as in benchmark/check.sh; the module's only
// requirement is the replace, so nothing is downloaded.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
