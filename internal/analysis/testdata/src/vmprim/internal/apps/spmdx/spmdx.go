// Cross-package fixtures for an identity guard: both the taint source
// and the collective arrive from vmprim/internal/other/xhelp via
// package facts. The facts-off control run in the collorder test
// asserts these diagnostics disappear without them.
package spmdx

import (
	"vmprim/internal/hypercube"
	"vmprim/internal/other/xhelp"
)

// GuardedReduce runs an imported collective wrapper under an imported
// identity guard.
func GuardedReduce(p *hypercube.Proc, data []float64) {
	if xhelp.Quadrant(p) > 0 { // want `one side runs \[SumAll\(\)\], the other \[nothing\]`
		xhelp.SumAll(p, data)
	}
}
