// Package spanbalance statically proves that every BeginSpan has a
// matching EndSpan on every control-flow path, subsuming the runtime
// "EndSpan without matching BeginSpan" / "span(s) left open at end of
// run" panics that otherwise fire only when a profiled run happens to
// take the broken path.
//
// The proof is package balance's all-paths depth/credit walk with
// BeginSpan as the acquire and EndSpan as the release; its rules (exits,
// branch agreement, loop neutrality, jumps, the defer-in-a-loop trap)
// are documented there.
//
// Functions containing goto are skipped (the walk cannot follow
// arbitrary jumps), as are the one-line BeginSpan/EndSpan forwarding
// wrappers (core.Env delegating to hypercube.Proc), which are
// intentionally "unbalanced" in isolation.
//
// When a function opens exactly one span at its top level and closes
// none, the unbalanced-exit diagnostics carry a suggested fix that
// inserts the idiomatic `defer x.EndSpan()` right after the BeginSpan;
// vmlint -fix applies it.
package spanbalance

import (
	"fmt"
	"go/ast"

	"vmprim/internal/analysis/balance"
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
			// Function literals get their own independent walk: a
			// closure's spans balance against its own body, not its
			// lexical surroundings.
			for _, body := range framework.Bodies(fn) {
				checkFunc(pass, body)
			}
		}
	}
	return nil, nil
}

func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	balance.Check(pass, body, balance.Pair{
		Op:      func(call *ast.CallExpr) (bool, bool) { return vmlib.IsSpanCall(pass.TypesInfo, call) },
		Release: "EndSpan",
		Message: message,
	})
}

// message words the balance findings. Spans nest, so a BeginSpan with
// one already open is not a finding.
func message(ev balance.Event, n int) string {
	switch ev {
	case balance.Unmatched:
		return "EndSpan without an open span on this path"
	case balance.DeferInLoop:
		return "deferred EndSpan inside a loop runs at function return, not at iteration end"
	case balance.ReturnOpen:
		return fmt.Sprintf("return leaves %d span(s) open on this path (EndSpan is not deferred and this exit misses it)", n)
	case balance.EndOpen:
		return fmt.Sprintf("function ends with %d span(s) still open (BeginSpan without matching EndSpan)", n)
	case balance.IfSkew:
		return "span depth differs between the branches of this if (one side is missing a BeginSpan or EndSpan)"
	case balance.CaseSkew:
		return "span depth differs between the cases of this switch"
	case balance.LoopDrift:
		return fmt.Sprintf("loop body changes open-span depth by %d per iteration", n)
	case balance.JumpSkew:
		return fmt.Sprintf("leaves %d span(s) open relative to the enclosing loop", n)
	}
	return ""
}
