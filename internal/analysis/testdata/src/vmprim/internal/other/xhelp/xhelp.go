// Package xhelp sits outside every analyzer's reporting scope but
// inside collorder's summary: Quadrant is an identity source and
// SumAll a collective wrapper. Both classifications travel to
// importers as package facts; the xuse and spmdx fixtures assert that
// collorder sees them — and that without facts it sees nothing.
package xhelp

import (
	"vmprim/internal/collective"
	"vmprim/internal/hypercube"
)

// Quadrant returns a value derived from processor identity.
func Quadrant(p *hypercube.Proc) int { return (p.ID() >> 1) & 1 }

// SumAll hides a collective behind an exported helper.
func SumAll(p *hypercube.Proc, data []float64) {
	collective.AllReduce(p, 3, 9, data, nil)
}
