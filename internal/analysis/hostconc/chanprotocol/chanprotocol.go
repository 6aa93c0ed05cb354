// Package chanprotocol enforces the channel ownership discipline of
// the host-concurrent packages:
//
//   - single-owner close: no path closes a channel a previous point of
//     the same function may already have closed (double close panics),
//     and no close of a loop-independent channel sits inside a loop
//     (the second iteration panics);
//   - no send on a channel *any* path has closed — the state is the
//     union over branches, matching the runtime's worst case (send on
//     a closed channel panics);
//   - no go/defer closure inside a loop capturing a variable the loop
//     body keeps writing: the goroutine's read races with later
//     iterations, and a deferred closure observes only the final
//     value. (Per-iteration loop variables — Go ≥ 1.22 semantics —
//     and variables written only inside the closure itself are fine;
//     the cure is passing the value as an argument.)
//
// The close/send walk is a framework.WalkPaths flow, path-sensitive and
// intra-procedural: channel identity is the receiver-expression text,
// branch and loop joins take the union of closed sets, return and
// panic end a path, and reassigning a channel variable
// (ch = make(...)) revives it. The single-owner convention keeps the
// serving plane analyzable this way — the broadcaster closes subscriber
// channels only under its own mutex after removing them from the map,
// the registry's Run closes done exactly once in complete.
package chanprotocol

import (
	"go/ast"
	"go/types"
	"maps"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/hostconc"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the chanprotocol entry point.
var Analyzer = &framework.Analyzer{
	Name: "chanprotocol",
	Doc:  "check close ownership, sends on closed channels and loop-captured variables in go/defer closures",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hostconc.InDiagScope(pass, fn.Pos()) {
				continue
			}
			// Function literals get their own independent close walk: a
			// closure's closes are its own protocol.
			for _, body := range framework.Bodies(fn) {
				framework.WalkPaths[closedSet](body, &cflow{pass: pass}, closedSet{})
				checkCaptures(pass, body)
			}
		}
	}
	return nil, nil
}

// closedSet is the set of channel keys some path may have closed.
type closedSet map[string]bool

// cflow is the close/send framework.Flow over closedSet.
type cflow struct {
	pass *framework.Pass
}

func (w *cflow) Leaf(s ast.Stmt, set closedSet, loops []ast.Stmt) (closedSet, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if vmlib.IsBuiltinCall(w.pass.TypesInfo, call, "close") && len(call.Args) == 1 {
				ch := call.Args[0]
				key := types.ExprString(ch)
				if set[key] {
					w.pass.Reportf(call.Pos(), "close of %s, which an earlier point on this path may already have closed (a second close panics)", key)
				}
				if len(loops) > 0 && !w.loopDependent(ch, loops) {
					w.pass.Reportf(call.Pos(), "close of %s inside a loop runs on every iteration (the second close panics)", key)
				}
				set[key] = true
			} else if vmlib.IsBuiltinCall(w.pass.TypesInfo, call, "panic") {
				return set, true
			}
		}

	case *ast.SendStmt:
		w.checkSend(s, set)

	case *ast.AssignStmt:
		// Reassigning a channel variable revives it.
		for _, lhs := range s.Lhs {
			delete(set, types.ExprString(lhs))
		}

	case *ast.ReturnStmt:
		return set, true
	}
	// Everything else — go and defer included, whose closures' closes
	// happen later, on their own walk — leaves the set alone.
	return set, false
}

// Head checks a select's comm sends against the incoming set.
func (w *cflow) Head(s ast.Stmt, set closedSet) {
	if sel, ok := s.(*ast.SelectStmt); ok {
		for _, c := range sel.Body.List {
			if send, ok := c.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
				w.checkSend(send, set)
			}
		}
	}
}

func (w *cflow) checkSend(s *ast.SendStmt, set closedSet) {
	if key := types.ExprString(s.Chan); set[key] {
		w.pass.Reportf(s.Arrow, "send on %s, which some path may already have closed (a send on a closed channel panics)", key)
	}
}

// Join takes the union: closed on some arm is may-closed after it.
func (w *cflow) Join(_ ast.Stmt, outs []closedSet) closedSet {
	for _, o := range outs[1:] {
		maps.Copy(outs[0], o)
	}
	return outs[0]
}

func (w *cflow) Loop(_ ast.Stmt, entry, back closedSet) closedSet {
	maps.Copy(entry, back)
	return entry
}

// Jump carries what the path closed before its break or continue out
// of the loop: entry is the set the loop hands on.
func (w *cflow) Jump(_ *ast.BranchStmt, entry, at closedSet) { maps.Copy(entry, at) }

func (w *cflow) Copy(set closedSet) closedSet { return maps.Clone(set) }

// loopDependent reports whether the channel expression involves an
// identifier declared inside one of the enclosing loops (the range
// variable, or a variable created per iteration) — in which case each
// iteration closes a different channel and the loop close is fine.
func (w *cflow) loopDependent(ch ast.Expr, loops []ast.Stmt) bool {
	dep := false
	ast.Inspect(ch, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = w.pass.TypesInfo.Defs[id]
		}
		if obj == nil {
			return true
		}
		for _, loop := range loops {
			if obj.Pos() >= loop.Pos() && obj.Pos() <= loop.End() {
				dep = true
				return false
			}
		}
		return true
	})
	return dep
}

// checkCaptures reports go/defer closures inside loops that read a
// variable declared outside the loop while the loop body keeps
// writing it outside the closure.
func checkCaptures(pass *framework.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // inner literals run their own checkCaptures
		}
		var loopBody *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			loopBody = loop.Body
		case *ast.RangeStmt:
			loopBody = loop.Body
		default:
			return true
		}
		checkLoopCaptures(pass, n, loopBody)
		return true
	})
}

func checkLoopCaptures(pass *framework.Pass, loop ast.Node, body *ast.BlockStmt) {
	// Variables the loop body writes outside any closure, declared
	// outside the loop. (Per-iteration declarations and range
	// variables are new objects each iteration under Go ≥ 1.22.)
	writes := map[*types.Var]bool{}
	recordWrite := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		obj, _ := pass.TypesInfo.Uses[id].(*types.Var)
		if obj == nil {
			return
		}
		if obj.Pos() < loop.Pos() || obj.Pos() > loop.End() {
			writes[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				recordWrite(lhs)
			}
		case *ast.IncDecStmt:
			recordWrite(n.X)
		}
		return true
	})
	if len(writes) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		var lit *ast.FuncLit
		var deferred bool
		switch n := n.(type) {
		case *ast.GoStmt:
			lit, _ = ast.Unparen(n.Call.Fun).(*ast.FuncLit)
		case *ast.DeferStmt:
			lit, _ = ast.Unparen(n.Call.Fun).(*ast.FuncLit)
			deferred = true
		default:
			return true
		}
		if lit == nil {
			return true
		}
		reported := map[*types.Var]bool{}
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			id, ok := inner.(*ast.Ident)
			if !ok {
				return true
			}
			obj, _ := pass.TypesInfo.Uses[id].(*types.Var)
			if obj == nil || !writes[obj] || reported[obj] {
				return true
			}
			reported[obj] = true
			if deferred {
				pass.Reportf(id.Pos(),
					"deferred closure captures %s, which the loop keeps writing; every deferred call will observe only the final value — pass it as an argument instead", id.Name)
			} else {
				pass.Reportf(id.Pos(),
					"go closure captures %s, which the loop body writes on every iteration; the goroutine's read races with later iterations — pass it as an argument instead", id.Name)
			}
			return true
		})
		return false // the literal's own loops run their own checkCaptures
	})
}
