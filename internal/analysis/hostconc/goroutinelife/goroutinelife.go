// Package goroutinelife requires every go statement in the
// host-concurrent packages to carry a termination obligation — the
// static version of the leakcheck test helper's runtime assertion. A
// goroutine a long-lived daemon spawns must provably stop: the
// executor workers exit when the queue channel closes, the submit
// workers when the shared counter runs out and the WaitGroup collects
// them. A goroutine with no such obligation outlives every run and
// accumulates — the leak class that kills servers slowly.
//
// A spawned body discharges the obligation if it (or a same-package
// function it calls, transitively):
//
//   - receives from a done-signal channel — any chan struct{}, which
//     is also what ctx.Done() returns — in a select case or a direct
//     receive;
//   - calls sync.WaitGroup.Done, tying it to a collected Add/Wait
//     pair;
//   - ranges over a channel, terminating when the owner closes it.
//
// Anything else — including a go statement whose callee lives outside
// the package, where this analyzer cannot look — is reported, and the
// escape hatch is a reasoned //lint:allow goroutinelife directive:
// the legitimate daemon-lifetime goroutines in cmd/vmprimd and
// cmd/vmload (http.Server.Serve adapters whose termination is the
// listener's Close) document themselves exactly that way.
package goroutinelife

import (
	"go/ast"
	"go/token"
	"go/types"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/hostconc"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the goroutinelife entry point.
var Analyzer = &framework.Analyzer{
	Name: "goroutinelife",
	Doc:  "require every go statement to carry a termination obligation (done channel, WaitGroup, or reasoned allow)",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	// Summarize which local functions discharge a termination
	// obligation, transitively: `go consume(ch)` is fine when consume
	// ranges over the channel.
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					bodies[obj] = fn
				}
			}
		}
	}
	terminates := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			if !terminates[obj] && discharges(pass, terminates, fn.Body) {
				terminates[obj] = true
				changed = true
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hostconc.InDiagScope(pass, fn.Pos()) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				check(pass, terminates, bodies, g)
				return true
			})
		}
	}
	return nil, nil
}

func check(pass *framework.Pass, terminates map[*types.Func]bool, bodies map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if !discharges(pass, terminates, lit.Body) {
			pass.Reportf(g.Pos(),
				"goroutine has no termination obligation: select on a done channel, pair it with a sync.WaitGroup Done, or annotate //lint:allow goroutinelife <reason>")
		}
		return
	}
	f := vmlib.Callee(pass.TypesInfo, g.Call)
	if f != nil {
		if _, local := bodies[f]; local {
			if !terminates[f] {
				pass.Reportf(g.Pos(),
					"goroutine has no termination obligation: %s neither receives from a done channel nor signals a sync.WaitGroup; add one or annotate //lint:allow goroutinelife <reason>", f.Name())
			}
			return
		}
	}
	what := "a function value"
	if f != nil {
		what = f.FullName()
	}
	pass.Reportf(g.Pos(),
		"goroutine runs %s, whose termination this analyzer cannot prove; wrap it in a closure with a done-channel select or annotate //lint:allow goroutinelife <reason>", what)
}

// discharges reports whether body contains a termination obligation
// under the current summaries: a receive from a done-signal channel,
// a WaitGroup.Done, a range over a channel, or a call to a local
// function already known to discharge one. Nested literals are
// included — a helper closure carrying the done-select is still this
// goroutine's exit path.
func discharges(pass *framework.Pass, terminates map[*types.Func]bool, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && hostconc.IsDoneChan(pass.TypesInfo.TypeOf(n.X)) {
				found = true
			}
		case *ast.RangeStmt:
			if hostconc.IsChan(pass.TypesInfo.TypeOf(n.X)) {
				found = true
			}
		case *ast.CallExpr:
			f := vmlib.Callee(pass.TypesInfo, n)
			if f == nil {
				return true
			}
			if vmlib.IsMethod(f, "sync", "WaitGroup", "Done") || terminates[f] {
				found = true
			}
		}
		return !found
	})
	return found
}
