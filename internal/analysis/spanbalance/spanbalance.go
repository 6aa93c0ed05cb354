// Package spanbalance statically proves that every BeginSpan has a
// matching EndSpan on every control-flow path, subsuming the runtime
// "EndSpan without matching BeginSpan" / "span(s) left open at end of
// run" panics that otherwise fire only when a profiled run happens to
// take the broken path.
//
// The proof is an all-paths walk of each function body over two
// counters: the number of BeginSpans not yet undone by an inline
// EndSpan (depth) and the number of deferred EndSpans registered so
// far (credits). The rules:
//
//   - at every return, and at the end of a body that can fall off,
//     depth must equal credits — the deferred closes undo exactly
//     what is still open;
//   - all arms of an if, switch or select that can fall out of it must
//     agree on both counters, since the following code cannot know
//     which arm ran;
//   - a loop body must be neutral, and an EndSpan deferred inside a
//     loop is an error of its own (it runs at function return, not at
//     iteration end — the classic bug);
//   - break and continue must occur at the entry depth of the loop
//     they target, because they jump to code that assumes it;
//   - panic ends the path: the run aborts and deferred closes fire.
//
// Spans nest, so a BeginSpan with one already open is not a finding.
// The walk is structural (DESIGN.md, "The all-paths walk"): every loop
// is taken to be exitable, and a for loop's post statement is not
// walked.
//
// Function literals are walked as bodies of their own (a closure's
// spans balance against its own body, not its lexical surroundings).
// Bodies containing goto are skipped, since a structural walk cannot
// follow arbitrary jumps, as are the one-line BeginSpan/EndSpan
// forwarding wrappers (core.Env delegating to hypercube.Proc), which
// are intentionally "unbalanced" in isolation.
//
// When a body opens exactly one span at its top level and closes
// none, the unbalanced-exit diagnostics carry a suggested fix that
// inserts the idiomatic `defer x.EndSpan()` right after the BeginSpan;
// vmlint -fix applies it.
package spanbalance

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the spanbalance entry point.
var Analyzer = &framework.Analyzer{
	Name: "spanbalance",
	Doc:  "check that BeginSpan/EndSpan pairs balance on every control-flow path",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// Forwarding wrappers (Env.BeginSpan calling P.BeginSpan)
			// are unbalanced by design.
			if fn.Name.Name == "BeginSpan" || fn.Name.Name == "EndSpan" {
				continue
			}
			for _, body := range framework.Bodies(fn) {
				checkBody(pass, body)
			}
		}
	}
	return nil, nil
}

// checkBody walks body and reports every path on which its spans do
// not balance.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	if hasGoto(body) {
		return
	}
	w := &walker{pass: pass, fix: deferFix(pass, body)}
	if end, diverged := w.stmts(body.List, state{}); !diverged {
		w.exit(body.Rbrace, end, "function ends with %d span(s) still open (BeginSpan without matching EndSpan)")
	}
}

// hasGoto reports whether body, outside its function literals,
// contains a goto.
func hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			found = found || n.Tok == token.GOTO
		}
		return !found
	})
	return found
}

// state is one path's span bookkeeping.
type state struct {
	depth   int // BeginSpans not yet undone by an inline EndSpan
	credits int // deferred EndSpans registered so far
}

// target is an enclosing statement a break or continue can name.
type target struct {
	label string  // "" when unlabelled
	loop  bool    // for/range, as opposed to switch/select
	entry state   // loops: the state every jump to it must agree with
	outs  []state // switch/select: the states in which control leaves it
}

// walker is the walk of one body.
type walker struct {
	pass    *framework.Pass
	fix     *framework.SuggestedFix // attached to unbalanced-exit findings
	targets []target                // innermost last
	loops   int                     // how many of targets are loops
}

func (w *walker) report(pos token.Pos, format string, args ...any) {
	w.pass.Report(framework.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// exit checks that the deferred closes undo exactly the open spans
// where control leaves the body.
func (w *walker) exit(pos token.Pos, st state, format string) {
	if st.depth == st.credits {
		return
	}
	d := framework.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, st.depth-st.credits)}
	if w.fix != nil {
		d.SuggestedFixes = []framework.SuggestedFix{*w.fix}
	}
	w.pass.Report(d)
}

// stmts walks a statement list; diverged means control cannot fall off
// its end, and the returned state is then meaningless.
func (w *walker) stmts(list []ast.Stmt, st state) (state, bool) {
	for _, s := range list {
		var diverged bool
		if st, diverged = w.stmt(s, "", st); diverged {
			return st, true
		}
	}
	return st, false
}

func (w *walker) stmt(s ast.Stmt, label string, st state) (state, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, s.Label.Name, st)

	case *ast.IfStmt:
		st = w.init(s.Init, st)
		var outs []state
		if out, diverged := w.stmts(s.Body.List, st); !diverged {
			outs = append(outs, out)
		}
		if s.Else == nil {
			outs = append(outs, st)
		} else if out, diverged := w.stmt(s.Else, "", st); !diverged {
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
		return w.leaf(s, st)
	}
}

// init applies the optional init statement of an if, for or switch.
func (w *walker) init(s ast.Stmt, st state) state {
	if s != nil {
		st, _ = w.leaf(s, st)
	}
	return st
}

// leaf applies one statement with no control flow of its own. It
// returns the state after it and whether the path ends there (return,
// panic).
func (w *walker) leaf(s ast.Stmt, st state) (state, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if begin, ok := vmlib.IsSpanCall(w.pass.TypesInfo, call); ok {
				switch {
				case begin:
					st.depth++
				case st.depth <= 0:
					w.report(call.Pos(), "EndSpan without an open span on this path")
				default:
					st.depth--
				}
				return st, false
			}
			if vmlib.IsBuiltinCall(w.pass.TypesInfo, call, "panic") {
				return st, true
			}
		}

	case *ast.DeferStmt:
		// defer x.EndSpan(), or defer func() { …x.EndSpan()… }() whose
		// top-level EndSpans count.
		for _, call := range deferredCalls(s) {
			if begin, ok := vmlib.IsSpanCall(w.pass.TypesInfo, call); !ok || begin {
				continue
			}
			if w.loops > 0 {
				w.report(s.Pos(), "deferred EndSpan inside a loop runs at function return, not at iteration end")
			} else {
				st.credits++
			}
		}

	case *ast.ReturnStmt:
		w.exit(s.Pos(), st, "return leaves %d span(s) open on this path (EndSpan is not deferred and this exit misses it)")
		return st, true
	}
	return st, false
}

// deferredCalls lists the calls a defer statement runs at function
// return: its own call, or the top-level calls of a deferred literal.
func deferredCalls(s *ast.DeferStmt) []*ast.CallExpr {
	lit, ok := s.Call.Fun.(*ast.FuncLit)
	if !ok {
		return []*ast.CallExpr{s.Call}
	}
	var calls []*ast.CallExpr
	for _, inner := range lit.Body.List {
		if es, ok := inner.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				calls = append(calls, call)
			}
		}
	}
	return calls
}

// join reduces the states leaving a branching statement: none means
// every arm diverged.
func (w *walker) join(at ast.Stmt, st state, outs []state) (state, bool) {
	switch len(outs) {
	case 0:
		return st, true
	case 1:
		return outs[0], false
	}
	return w.agree(at, outs), false
}

// agree demands that the two or more states in which control leaves
// the arms of the if, switch or select at agree — or, when at is a case
// clause, the states in which control enters it: by its own match
// (outs[0]) and by fallthrough from the clause above.
func (w *walker) agree(at ast.Stmt, outs []state) state {
	for _, o := range outs[1:] {
		if o == outs[0] {
			continue
		}
		if _, ok := at.(*ast.IfStmt); ok {
			w.report(at.Pos(), "span depth differs between the branches of this if (one side is missing a BeginSpan or EndSpan)")
		} else {
			w.report(at.Pos(), "span depth differs between the cases of this switch")
		}
		break
	}
	return outs[0]
}

// loop walks a loop body entered in state st and demands that it be
// neutral. Control leaves the loop in its entry state.
func (w *walker) loop(s ast.Stmt, label string, body *ast.BlockStmt, st state) state {
	w.targets = append(w.targets, target{label: label, loop: true, entry: st})
	w.loops++
	back, diverged := w.stmts(body.List, st)
	w.loops--
	w.targets = w.targets[:len(w.targets)-1]
	// A body that never falls off its end has no back edge; jump
	// judged its breaks and continues.
	if !diverged && back.depth != st.depth {
		w.report(s.Pos(), "loop body changes open-span depth by %d per iteration", back.depth-st.depth)
	}
	return st
}

// cases walks the clauses of a switch, type switch or select. Control
// leaves the statement where a clause falls off its end, at any break
// that targets it, and — for a switch with no default — straight from
// the head; a select always runs exactly one clause.
func (w *walker) cases(s ast.Stmt, label string, body *ast.BlockStmt, st state) (state, bool) {
	w.targets = append(w.targets, target{label: label})
	self := len(w.targets) - 1
	_, isSelect := s.(*ast.SelectStmt)
	skippable := !isSelect
	var fell *state // out-state of a clause that ended in fallthrough
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list = c.Body
			skippable = skippable && c.List != nil
		case *ast.CommClause:
			list = c.Body
		}
		in := st
		if fell != nil {
			in, fell = w.agree(c, []state{in, *fell}), nil
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
// loop, switch or select for break. A jump to a loop must leave it at
// its entry depth; one to a switch or select joins the states leaving
// it.
func (w *walker) jump(br *ast.BranchStmt, st state) {
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := &w.targets[i]
		if br.Label != nil {
			if t.label != br.Label.Name {
				continue
			}
		} else if br.Tok == token.CONTINUE && !t.loop {
			continue
		}
		if !t.loop {
			t.outs = append(t.outs, st)
		} else if st.depth != t.entry.depth {
			w.report(br.Pos(), "%s leaves %d span(s) open relative to the enclosing loop", br.Tok, st.depth-t.entry.depth)
		}
		return
	}
}

// deferFix builds the "insert defer x.EndSpan() after the BeginSpan"
// fix when the body has the simple forgotten-defer shape: exactly one
// span call, a BeginSpan as a top-level statement, and no EndSpan
// anywhere (inline or deferred). Anything more structured has no
// single right repair, and the fix is nil.
func deferFix(pass *framework.Pass, body *ast.BlockStmt) *framework.SuggestedFix {
	calls := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := vmlib.IsSpanCall(pass.TypesInfo, call); ok {
				calls++
			}
		}
		return true
	})
	if calls != 1 {
		return nil
	}
	for _, s := range body.List {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if begin, ok := vmlib.IsSpanCall(pass.TypesInfo, call); !ok || !begin {
			continue
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		// gofmt indents with tabs; a fixed file must stay gofmt-clean.
		indent := strings.Repeat("\t", pass.Fset.Position(es.Pos()).Column-1)
		text := "\n" + indent + "defer " + types.ExprString(sel.X) + ".EndSpan()"
		return &framework.SuggestedFix{
			Message:   "defer the matching EndSpan",
			TextEdits: []framework.TextEdit{{Pos: es.End(), End: token.NoPos, NewText: []byte(text)}},
		}
	}
	return nil // the one call is an EndSpan, or nested in inner control flow
}
