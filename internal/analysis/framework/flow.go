package framework

import (
	"go/ast"
	"go/token"
)

// A Flow is an analyzer's half of an all-paths walk: an abstract state
// S and the transfer functions over it. WalkPaths owns the control
// flow — which statements run after which, where paths split, merge,
// loop and end — and calls back only at the points where the state
// matters.
type Flow[S any] interface {
	// Leaf applies one statement with no control flow of its own (a
	// call, assignment, send, defer, go, return, …) reached in state st
	// inside loops (outermost first). It returns the state after the
	// statement and whether the path ends there (return, panic).
	Leaf(s ast.Stmt, st S, loops []ast.Stmt) (out S, diverged bool)

	// Join merges the two or more states in which control can leave
	// the arms of the if, switch or select at (including the state
	// before at, when no arm need run) — or, when at is a case clause,
	// in which control can enter it: by its own match (outs[0]) and by
	// fallthrough from the clause above. The states may be mutated;
	// outs[0] is the conventional survivor.
	Join(at ast.Stmt, outs []S) S

	// Loop closes a back edge: the body entered in state entry falls
	// off its end in state back. It returns the state after the loop.
	Loop(loop ast.Stmt, entry, back S) S

	// Jump is a break or continue, in state at, that leaves or
	// restarts the loop entered in state entry — the loop the jump
	// really targets, through any labels and enclosing switches. entry
	// is the very state the loop goes on to hand to Loop, or to the code
	// after it: a flow with reference states may fold at into it.
	Jump(br *ast.BranchStmt, entry, at S)

	// Copy returns a state the walk of one arm may mutate without
	// disturbing its siblings.
	Copy(st S) S
}

// WalkPaths runs flow over every control-flow path of body from the
// state init. It returns the state at the closing brace and whether
// control can fall off it. Function literals are not entered: they are
// bodies of their own. A body containing goto is not walked at all —
// the structural walk cannot follow arbitrary jumps — and reports
// falls == false, so callers stay silent about it.
func WalkPaths[S any](body *ast.BlockStmt, flow Flow[S], init S) (end S, falls bool) {
	hasGoto := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			hasGoto = hasGoto || n.Tok == token.GOTO
		}
		return !hasGoto
	})
	if hasGoto {
		return init, false
	}
	w := &pathWalker[S]{flow: flow}
	end, diverged := w.stmts(body.List, init)
	return end, !diverged
}

// Bodies returns the units WalkPaths treats as independent: fn's own
// body, then that of every function literal inside it.
func Bodies(fn *ast.FuncDecl) []*ast.BlockStmt {
	bodies := []*ast.BlockStmt{fn.Body}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	return bodies
}

// target is an enclosing statement a break or continue can name.
type target[S any] struct {
	label string // "" when unlabelled
	loop  bool   // for/range, as opposed to switch/select
	entry S      // loops: the state every jump to it must agree with
	outs  []S    // switch/select: the states in which control leaves it
}

type pathWalker[S any] struct {
	flow    Flow[S]
	targets []target[S] // innermost last
	loops   []ast.Stmt  // the loop statements among targets
}

// stmts walks a statement list; diverged means control cannot fall off
// its end, and the returned state is then meaningless.
func (w *pathWalker[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var diverged bool
		if st, diverged = w.stmt(s, "", st); diverged {
			return st, true
		}
	}
	return st, false
}

func (w *pathWalker[S]) stmt(s ast.Stmt, label string, st S) (S, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, s.Label.Name, st)

	case *ast.IfStmt:
		st = w.init(s.Init, st)
		var outs []S
		if out, diverged := w.stmts(s.Body.List, w.flow.Copy(st)); !diverged {
			outs = append(outs, out)
		}
		if s.Else == nil {
			outs = append(outs, st)
		} else if out, diverged := w.stmt(s.Else, "", w.flow.Copy(st)); !diverged {
			outs = append(outs, out)
		}
		return w.join(s, st, outs)

	case *ast.ForStmt:
		st = w.init(s.Init, st)
		return w.loop(s, label, s.Body, st), false

	case *ast.RangeStmt:
		return w.loop(s, label, s.Body, st), false

	case *ast.SwitchStmt:
		return w.cases(s, label, s.Body, w.init(s.Init, st))

	case *ast.TypeSwitchStmt:
		return w.cases(s, label, s.Body, w.init(s.Init, st))

	case *ast.SelectStmt:
		return w.cases(s, label, s.Body, st)

	case *ast.BranchStmt:
		w.jump(s, st)
		return st, true

	default:
		return w.flow.Leaf(s, st, w.loops)
	}
}

// init applies the optional init statement of an if, for or switch.
func (w *pathWalker[S]) init(s ast.Stmt, st S) S {
	if s != nil {
		st, _ = w.flow.Leaf(s, st, w.loops)
	}
	return st
}

// join reduces the states leaving a branching statement: none means
// every arm diverged.
func (w *pathWalker[S]) join(at ast.Stmt, st S, outs []S) (S, bool) {
	switch len(outs) {
	case 0:
		return st, true
	case 1:
		return outs[0], false
	}
	return w.flow.Join(at, outs), false
}

func (w *pathWalker[S]) loop(s ast.Stmt, label string, body *ast.BlockStmt, st S) S {
	w.targets = append(w.targets, target[S]{label: label, loop: true, entry: st})
	w.loops = append(w.loops, s)
	back, diverged := w.stmts(body.List, w.flow.Copy(st))
	w.loops = w.loops[:len(w.loops)-1]
	w.targets = w.targets[:len(w.targets)-1]
	if diverged {
		return st // every path through the body returned or jumped; Jump judged the jumps
	}
	return w.flow.Loop(s, st, back)
}

// cases walks the clauses of a switch, type switch or select. Control
// leaves the statement where a clause falls off its end, at any break
// that targets it, and — for a switch with no default — straight from
// the head; a select always runs exactly one clause.
func (w *pathWalker[S]) cases(s ast.Stmt, label string, body *ast.BlockStmt, st S) (S, bool) {
	w.targets = append(w.targets, target[S]{label: label})
	self := len(w.targets) - 1
	_, isSelect := s.(*ast.SelectStmt)
	skippable := !isSelect
	var fell *S // out-state of a clause that ended in fallthrough
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list = c.Body
			skippable = skippable && c.List != nil
		case *ast.CommClause:
			list = c.Body
		}
		in := w.flow.Copy(st)
		if fell != nil {
			// Reached both by its own match and from the clause above.
			in, fell = w.flow.Join(c, []S{in, *fell}), nil
		}
		falls := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				list, falls = list[:n-1], true
			}
		}
		out, diverged := w.stmts(list, in)
		switch {
		case diverged:
		case falls:
			fell = &out
		default:
			w.targets[self].outs = append(w.targets[self].outs, out)
		}
	}
	outs := w.targets[self].outs
	w.targets = w.targets[:self]
	if skippable {
		outs = append(outs, st)
	}
	return w.join(s, st, outs)
}

// jump resolves a break or continue to the statement it leaves: the
// labelled one, else the innermost loop for continue and the innermost
// loop, switch or select for break.
func (w *pathWalker[S]) jump(br *ast.BranchStmt, st S) {
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := &w.targets[i]
		if br.Label != nil {
			if t.label != br.Label.Name {
				continue
			}
		} else if br.Tok == token.CONTINUE && !t.loop {
			continue
		}
		if t.loop {
			w.flow.Jump(br, t.entry, st)
		} else {
			t.outs = append(t.outs, st)
		}
		return
	}
}
