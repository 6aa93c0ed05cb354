// Fixtures for the top-level scope: example code written against the
// facade. The kernels called here are facade re-exports — collectives
// only because vmlib matches package-level vmprim functions by their
// *Proc/*Env first parameter — so these diagnostics prove that
// top-level example code is held to the SPMD contracts.
package exfix

import (
	"vmprim"
)

// Lopsided runs a facade kernel on row zero only.
func Lopsided(e *vmprim.Env) {
	if e.GridRow() == 0 { // want `one side runs \[MatVecKernel\(\)\], the other \[nothing\]`
		vmprim.MatVecKernel(e)
	}
}

// Balanced is fine: every processor calls the kernel.
func Balanced(e *vmprim.Env) float64 {
	return vmprim.MatVecKernel(e)
}

// RingByRank is fine: every processor calls the facade helper with
// the same constant tag; only the payload is per-rank.
func RingByRank(p *vmprim.Proc, data []float64) []float64 {
	return vmprim.Ring(p, 4, data)
}
