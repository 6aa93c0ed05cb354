// Fixtures for the shape of spanbalance's all-paths walk: where paths
// split, join, loop, jump and end. Each clean function here would be
// flagged by a walk that got its shape wrong.
package span

import "vmprim/internal/hypercube"

// ifOneArmDiverges: the arm that returns joins nothing, so the other
// arm's open span reaches the EndSpan below.
func ifOneArmDiverges(p *hypercube.Proc, c bool) {
	p.BeginSpan("op")
	if c {
		p.EndSpan()
		return
	} else {
		p.Compute(1)
	}
	p.EndSpan()
}

// ifWithoutElse: the arm is joined with the state that skips it.
func ifWithoutElse(p *hypercube.Proc, c bool) {
	if c { // want `span depth differs between the branches of this if`
		p.BeginSpan("op")
	}
	p.EndSpan()
}

// ifBothArmsDiverge: nothing after the if is reachable.
func ifBothArmsDiverge(p *hypercube.Proc, c bool) {
	p.BeginSpan("op")
	if c {
		p.EndSpan()
		return
	} else {
		panic("bad")
	}
	p.BeginSpan("unreachable")
}

// switchWithDefault: exactly the clauses leave the switch.
func switchWithDefault(p *hypercube.Proc, k int) {
	switch k {
	case 1:
		p.BeginSpan("a")
	default:
		p.BeginSpan("b")
	}
	p.EndSpan()
}

// switchWithoutDefault: every case opens a span, but no case may
// match, and that path opens none.
func switchWithoutDefault(p *hypercube.Proc, k int) {
	switch k { // want `span depth differs between the cases of this switch`
	case 1:
		p.BeginSpan("a")
	case 2:
		p.BeginSpan("b")
	}
	p.EndSpan()
}

// typeSwitchDivergingClause: the clause that returns is dropped from
// the join.
func typeSwitchDivergingClause(p *hypercube.Proc, v any) {
	p.BeginSpan("op")
	switch v.(type) {
	case int:
		p.Compute(1)
	case string:
		p.EndSpan()
		return
	default:
	}
	p.EndSpan()
}

// selectOneClause: a select runs exactly one clause, so no path skips
// them all.
func selectOneClause(p *hypercube.Proc, c chan int) {
	select {
	case <-c:
		p.BeginSpan("op")
	case c <- 1:
		return
	}
	p.EndSpan()
}

// selectWithDefault: the default clause is one of the arms.
func selectWithDefault(p *hypercube.Proc, c chan int) {
	select { // want `span depth differs between the cases of this switch`
	case <-c:
		p.BeginSpan("op")
	default:
	}
	p.EndSpan()
}

// emptySelect blocks for ever: control never reaches the closing
// brace with the span open.
func emptySelect(p *hypercube.Proc) {
	p.BeginSpan("op")
	select {}
}

// nestedLoopJumps: each jump is judged against the loop it names.
func nestedLoopJumps(p *hypercube.Proc, rows [][]int) {
outer:
	for _, row := range rows {
		p.BeginSpan("row")
		for _, v := range row {
			p.BeginSpan("cell")
			if v == 0 {
				p.EndSpan()
				p.EndSpan()
				continue outer
			}
			if v == 1 {
				p.EndSpan()
				break
			}
			if v == 2 {
				continue // want `continue leaves 1 span\(s\) open relative to the enclosing loop`
			}
			if v == 3 {
				break outer // want `break leaves 2 span\(s\) open relative to the enclosing loop`
			}
			p.EndSpan()
		}
		p.EndSpan()
	}
}

// loopBodyNeverFallsOff: a body that always returns has no back edge,
// so the span it opens is not a per-iteration drift; the deferred
// EndSpan closes it.
func loopBodyNeverFallsOff(p *hypercube.Proc, xs []int) {
	defer p.EndSpan()
	for range xs {
		p.BeginSpan("first")
		return
	}
	p.BeginSpan("none")
}

// selectBreakInLoop: the unlabelled break ends the select clause, not
// the loop.
func selectBreakInLoop(p *hypercube.Proc, c chan int, xs []int) {
	for range xs {
		p.BeginSpan("iter")
		select {
		case <-c:
			break
		default:
		}
		p.EndSpan()
	}
}

// labeledBreakFromSwitch: break L leaves the loop L, not the switch
// it sits in.
func labeledBreakFromSwitch(p *hypercube.Proc, xs []int) {
loop:
	for _, x := range xs {
		p.BeginSpan("iter")
		switch x {
		case 0:
			break loop // want `break leaves 1 span\(s\) open relative to the enclosing loop`
		}
		p.EndSpan()
	}
}

// continueInSwitch: continue skips the rest of the switch and
// restarts the loop.
func continueInSwitch(p *hypercube.Proc, xs []int) {
	for _, x := range xs {
		switch x {
		case 1:
			p.BeginSpan("op")
			continue // want `continue leaves 1 span\(s\) open relative to the enclosing loop`
		}
	}
}

// breakSelectFromLoop: break sel leaves the select from inside a loop
// with the span open. Every loop is taken to be exitable, so the
// clause also falls off its end with none open.
func breakSelectFromLoop(p *hypercube.Proc, c chan int, xs []int) {
sel:
	select { // want `span depth differs between the cases of this switch`
	case <-c:
		for range xs {
			p.BeginSpan("op")
			break sel
		}
	default:
	}
} // want `function ends with 1 span\(s\) still open`

// gotoBail: a body containing goto is not walked at all.
func gotoBail(p *hypercube.Proc, c bool) {
	p.BeginSpan("op")
	if c {
		goto done
	}
	p.Compute(1)
done:
	p.Compute(2)
}

// gotoInLiteral: a goto inside a function literal bails only the
// literal's walk.
func gotoInLiteral(p *hypercube.Proc) {
	f := func() {
		goto l
	l:
	}
	p.BeginSpan("op")
	f()
} // want `function ends with 1 span\(s\) still open`
