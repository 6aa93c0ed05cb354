// Package core is a typecheck-only stub of the real Env wrapper for
// the analyzer fixtures. DotVec stands in for the exported SPMD
// operations (treated as collectives by the analyzers), as do the tag
// counter's NextTag and NextTag2; the methods on the vmlib allowlist
// (GridRow, GridCol, ...) are local.
package core

import "vmprim/internal/hypercube"

// Env mirrors the real per-processor computation environment.
type Env struct {
	P *hypercube.Proc
}

func (e *Env) BeginSpan(name string) {}
func (e *Env) EndSpan()              {}
func (e *Env) NextTag() int          { return 0 }
func (e *Env) NextTag2() int         { return 0 }
func (e *Env) GridRow() int          { return 0 }
func (e *Env) GridCol() int          { return 0 }
func (e *Env) Profiling() bool       { return false }

// DotVec is an exported SPMD operation: every processor must call it.
func (e *Env) DotVec() float64 { return 0 }
