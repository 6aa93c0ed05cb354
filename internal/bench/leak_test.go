package bench

import (
	"runtime/debug"
	"testing"

	"vmprim/internal/testutil"
)

// TestRunnersCloseTheirMachines: a table builder must stop the worker
// goroutines of every machine it constructs before it returns, on its
// own — not whenever a finalizer gets round to it. The collector is
// switched off for the duration so that only an explicit Close can end
// a worker. X1 builds one machine; F1 builds one per loop iteration.
func TestRunnersCloseTheirMachines(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer testutil.CheckLeaks(t, testutil.Snapshot())
	for _, run := range []func() (*Table, error){X1MatMul, F1Speedup} {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
}
