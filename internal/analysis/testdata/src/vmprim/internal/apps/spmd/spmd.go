// Fixtures for identity-guarded collectives, checked by collorder:
// a collective (or a return that skips one) under an `if`/`switch` on
// processor identity is reported at the guarding statement.
package spmd

import (
	"vmprim/internal/collective"
	"vmprim/internal/core"
	"vmprim/internal/hypercube"
)

// rootOnlyBcast is the canonical deadlock: one processor calls the
// collective, the rest skip it.
func rootOnlyBcast(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 { // want `one side runs \[Bcast\(mask=1,tag=1,rootRel=0\)\], the other \[nothing\]`
		collective.Bcast(p, 1, 1, 0, data)
	}
}

// uniform is the correct shape: every processor calls, the root is an
// argument, and per-rank data differences are fine.
func uniform(p *hypercube.Proc, data []float64) {
	var src []float64
	if p.ID() == 0 {
		src = data
	}
	got := collective.Bcast(p, 1, 1, 0, src)
	p.Recycle(got)
}

// helper performs a collective, so calling it is calling one.
func helper(p *hypercube.Proc, data []float64) {
	got := collective.AllGather(p, 1, 1, data)
	p.Recycle(got)
}

// hiddenInHelper launders the collective through the helper; the
// interprocedural summary still flags the guarded call.
func hiddenInHelper(p *hypercube.Proc, data []float64) {
	if p.ID() != 0 { // want `one side runs \[helper\(\)\], the other \[nothing\]`
		helper(p, data)
	}
}

// taintedVar tracks identity through an intermediate variable.
func taintedVar(p *hypercube.Proc) {
	root := p.ID() == 0
	if root { // want `one side runs \[Barrier\(mask=1,tag=1\)\], the other \[nothing\]`
		p.Barrier(1, 1)
	}
}

// earlyReturn diverges: non-holders leave, holders reach the
// collective below and wait forever.
func earlyReturn(e *core.Env) {
	if e.GridRow() != 0 { // want `one side runs \[nothing\], the other \[DotVec\(\)\]`
		return
	}
	e.DotVec()
}

// guardedTag advances the tag counter on some processors only, so the
// tags the processors draw next differ.
func guardedTag(e *core.Env) {
	if e.GridRow() == 0 { // want `one side runs \[NextTag\(\)\], the other \[nothing\]`
		e.NextTag()
	}
}

// safeEarlyReturn does not diverge: the only span close after the
// return is deferred, so it runs on every exit, and no collective
// follows.
func safeEarlyReturn(e *core.Env) {
	e.BeginSpan("op")
	defer e.EndSpan()
	if e.GridCol() != 0 {
		return
	}
}

// sanitized shows that collective results carry no taint: they are
// replicated, identical on every processor, so branching on one is
// symmetric.
func sanitized(p *hypercube.Proc, data []float64) {
	got := collective.Bcast(p, 1, 1, 0, data)
	if got[0] > 0 {
		p.Barrier(1, 2)
	}
	p.Recycle(got)
}

// hostCode shows that a closure (the SPMD body handed to a runner)
// does not taint the host-side results of the call it is passed to.
func hostCode(run func(func(p *hypercube.Proc)) error, data []float64) error {
	err := run(func(p *hypercube.Proc) {
		var src []float64
		if p.ID() == 0 {
			src = data
		}
		got := collective.Bcast(p, 1, 1, 0, src)
		p.Recycle(got)
	})
	if err != nil {
		return err
	}
	return nil
}

// closureGuarded flags divergence inside the closure scope itself.
func closureGuarded(run func(func(p *hypercube.Proc)), data []float64) {
	run(func(p *hypercube.Proc) {
		if p.ID() == 0 { // want `one side runs \[Bcast\(mask=1,tag=1,rootRel=0\)\], the other \[nothing\]`
			collective.Bcast(p, 1, 1, 0, data)
		}
	})
}

// switchGuards mirrors core.ExtractRow: a uniform guard ahead of a
// rank guard in a condition-less switch. Only the rank-guarded case
// is identity-dependent.
func switchGuards(e *core.Env, replicate bool) {
	switch { // want `identity-dependent switch: one side runs \[DotVec\(\)\], the other \[nothing\]`
	case replicate:
		e.DotVec()
	case e.GridRow() == 0:
		e.DotVec()
	}
}

// subcube documents a deliberate holder-only collective with a
// suppression directive.
func subcube(p *hypercube.Proc, data []float64) {
	//lint:allow collorder the gather below spans the root subcube only, which the other ranks are not part of
	if p.ID() == 0 {
		got := collective.AllGather(p, 1, 1, data)
		p.Recycle(got)
	}
}
