// Package spmdsym statically enforces the SPMD-symmetry contract of
// the simulator: inside code that runs as an SPMD body, collective
// operations (and the BeginSpan/EndSpan pair, whose tree discovery
// relies on every processor opening the same spans in the same order)
// must not be control-dependent on processor identity. A collective
// guarded by `if p.ID() == 0` is executed by one processor and skipped
// by the rest, which deadlocks the run — caught at run time only on
// the executions that reach the guard.
//
// Processor identity flows from Proc.ID (and the grid coordinates
// Env.GridRow/GridCol, which are derived from it). The analyzer taints
// every local variable assigned from an expression involving those
// sources, then flags any collective call, early return, break or
// continue that sits inside an if/switch/loop whose condition reads a
// tainted value.
//
// The check is applied to the packages built on top of the collective
// layer (core, apps, bench) and to the top-level code written against
// the facade (the vmprim package itself, examples, commands). The
// collective and hypercube packages themselves are exempt: their
// internals are deliberately rank-asymmetric — a binomial-tree
// broadcast is nothing but rank-dependent sends and receives — and
// their point-to-point structure is what the collectives' own protocol
// tests verify.
//
// Helpers are handled interprocedurally through the collectives base
// analyzer: a function that (transitively) performs a collective is
// itself treated as one at its call sites, and a function that returns
// an identity-derived value is itself an identity source — in the same
// package or, via package facts, across package boundaries. Hiding a
// Reduce inside a helper in another package and calling the helper
// under a rank guard is still flagged.
package spmdsym

import (
	"go/ast"
	"go/token"

	"vmprim/internal/analysis/collectives"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the spmdsym entry point.
var Analyzer = &framework.Analyzer{
	Name:     "spmdsym",
	Doc:      "check that collectives are not control-dependent on processor identity inside SPMD code",
	Requires: []*framework.Analyzer{collectives.Analyzer},
	Run:      run,
}

func run(pass *framework.Pass) (any, error) {
	if !vmlib.InScope(pass.Pkg.Path(), vmlib.CorePath, vmlib.AppsPath, vmlib.BenchPath) &&
		!vmlib.InTopLevelScope(pass.Pkg.Path()) {
		return nil, nil
	}
	summary := pass.ResultOf[collectives.Analyzer].(*collectives.Result)

	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFunc(pass, fn, summary)
			}
		}
	}
	return nil, nil
}

// checkFunc taints identity-derived locals and flags collectives under
// tainted control.
func checkFunc(pass *framework.Pass, fn *ast.FuncDecl, summary *collectives.Result) {
	cfg := summary.TaintConfig()
	tainted := cfg.Objects(fn)
	exprTainted := func(e ast.Expr) bool { return cfg.Expr(tainted, e) }

	// Each function literal is its own SPMD scope: the closure passed
	// to Machine.Run is the SPMD body while the enclosing function is
	// host code, so divergence is judged per scope, never across a
	// closure boundary.
	reported := make(map[token.Pos]bool)
	for _, scope := range framework.Bodies(fn) {
		checkScope(pass, scope, summary.IsCollectiveCall, exprTainted, reported)
	}
}

// checkScope flags identity-dependent collectives and early returns
// within one function scope (a declared body or one closure body),
// never descending into nested literals.
func checkScope(pass *framework.Pass, scope *ast.BlockStmt, isCollective func(*ast.CallExpr) bool, exprTainted func(ast.Expr) bool, reported map[token.Pos]bool) {
	// Positions of the scope's non-deferred collective calls. An early
	// return only diverges processors when it skips a collective the
	// other processors go on to execute; deferred calls (the idiomatic
	// defer e.EndSpan()) run on every exit and cannot be skipped.
	var collPos []token.Pos
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if isCollective(n) {
				collPos = append(collPos, n.Pos())
			}
		}
		return true
	})
	collectiveAfter := func(pos token.Pos) bool {
		for _, p := range collPos {
			if p > pos {
				return true
			}
		}
		return false
	}

	// Find tainted control statements and flag collectives and
	// divergent early exits inside them. Nested tainted conditions
	// would re-flag the same call once per level; report each position
	// once.
	ast.Inspect(scope, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var cond ast.Expr
		var body []ast.Node
		switch s := n.(type) {
		case *ast.IfStmt:
			cond = s.Cond
			body = append(body, s.Body)
			if s.Else != nil {
				body = append(body, s.Else)
			}
		case *ast.SwitchStmt:
			if s.Tag == nil {
				// Condition-less switch: the case guards run in order,
				// so everything from the first tainted guard on is
				// identity-dependent — reaching a later case requires
				// the tainted guard to have failed. Earlier cases are
				// untainted territory.
				for i, c := range s.Body.List {
					cc := c.(*ast.CaseClause)
					for _, e := range cc.List {
						if exprTainted(e) {
							cond = e
							break
						}
					}
					if cond != nil {
						for _, later := range s.Body.List[i:] {
							body = append(body, later)
						}
						break
					}
				}
			} else {
				cond = s.Tag
				body = append(body, s.Body)
			}
		case *ast.ForStmt:
			cond = s.Cond
			body = append(body, s.Body)
		default:
			return true
		}
		if cond == nil || !exprTainted(cond) {
			return true
		}
		for _, b := range body {
			flagIn(pass, b, isCollective, collectiveAfter, reported)
		}
		return true
	})
}

// flagIn reports every collective call, and every early return that
// skips a later collective, lexically inside root.
func flagIn(pass *framework.Pass, root ast.Node, isCollective func(*ast.CallExpr) bool, collectiveAfter func(token.Pos) bool, reported map[token.Pos]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own scope, checked separately
		case *ast.CallExpr:
			if isCollective(n) && !reported[n.Pos()] {
				reported[n.Pos()] = true
				name := "collective"
				if f := vmlib.Callee(pass.TypesInfo, n); f != nil {
					name = f.Name()
				}
				pass.Reportf(n.Pos(),
					"%s is control-dependent on processor identity: processors diverge and the run deadlocks",
					name)
			}
		case *ast.ReturnStmt:
			if collectiveAfter(n.Pos()) && !reported[n.Pos()] {
				reported[n.Pos()] = true
				pass.Reportf(n.Pos(),
					"early return under a processor-identity condition skips the collective(s) after it: processors diverge and the run deadlocks")
			}
		}
		return true
	})
}
