// Package simdeterminism statically protects the simulator's
// bit-identical-times guarantee: the EXPERIMENTS tables are reproduced
// digit for digit on every host, which holds only because nothing in
// the simulation layer reads wall-clock time, process-seeded
// randomness, or Go's randomized map iteration order in a way that
// feeds message traffic or reduction order.
//
// Inside the simulation packages (hypercube, collective, core, apps,
// router) the analyzer forbids, in non-test files:
//
//   - time.Now, time.Since, time.Until and time.Sleep — wall-clock
//     reads and waits (time.Duration values and timers are fine: they
//     never feed the virtual clock);
//   - package-level math/rand and math/rand/v2 functions, which draw
//     from the process-global generator seeded differently every run;
//     explicitly seeded generators (rand.New(rand.NewSource(seed)))
//     are untouched;
//   - ranging over a map when the loop body sends messages, calls a
//     collective, or opens spans: map order varies per execution, so
//     message order, floating-point reduction order, and the
//     SPMD span-discovery order would too.
//
// A run is one thread, but the order it runs processors in is the
// engine's to choose (TestScheduleIndependence runs LIFO and random
// orders), so two more rules guard against depending on it:
//
//   - runtime.Gosched — a host-scheduler yield inside the simulation
//     layer means the code is timing itself against the host
//     scheduler; correct SPMD code synchronizes only through sends,
//     receives and collectives;
//   - unsynchronized writes to captured variables from SPMD bodies —
//     every processor executes the body, in an order the engine
//     picks, so a plain assignment to a variable declared outside the
//     body leaves whichever processor ran last the winner, unless it
//     is guarded by a processor-identity check (if p.ID() == 0 { ... })
//     or indexed per processor (out[p.ID()] = ...).
package simdeterminism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the simdeterminism entry point.
var Analyzer = &framework.Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock reads, global rand, and map-order-dependent communication in the simulator",
	Run:  run,
}

// forbiddenTime are the wall-clock entry points of package time.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators and are therefore allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *framework.Pass) (any, error) {
	if !vmlib.InScope(pass.Pkg.Path(),
		vmlib.HypercubePath, vmlib.CollectivePath, vmlib.CorePath, vmlib.AppsPath, vmlib.RouterPath) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
		checkSPMDBodies(pass, file)
	}
	return nil, nil
}

// checkCall flags wall-clock and global-rand calls.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	f := vmlib.Callee(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (rand.Rand.Float64, Timer.Reset) are fine
	}
	switch f.Pkg().Path() {
	case "time":
		if forbiddenTime[f.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; simulated times must depend only on the cost model",
				f.Name())
		}
	case "runtime":
		if f.Name() == "Gosched" {
			pass.Reportf(call.Pos(),
				"runtime.Gosched yields to the host scheduler; SPMD code must synchronize only through sends, receives and collectives, never host interleaving")
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[f.Name()] {
			d := framework.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf(
					"rand.%s draws from the process-global generator; use rand.New(rand.NewSource(seed)) so runs are reproducible",
					f.Name()),
			}
			if fix := seededRandFix(pass, call, f); fix != nil {
				d.SuggestedFixes = []framework.SuggestedFix{*fix}
			}
			pass.Report(d)
		}
	}
}

// seededRandFix rewrites a package-level rand call to draw from an
// explicitly seeded generator by replacing the package qualifier:
// rand.Intn(n) becomes rand.New(rand.NewSource(1)).Intn(n) (or the
// NewPCG form for math/rand/v2). Every forbidden package-level
// function is also a *rand.Rand method except v2's generic rand.N, so
// the rewrite always compiles; seed 1 is a placeholder the author is
// expected to thread through properly, but even unedited it restores
// run-to-run reproducibility, which is the invariant being enforced.
func seededRandFix(pass *framework.Pass, call *ast.CallExpr, f *types.Func) *framework.SuggestedFix {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	var repl string
	switch f.Pkg().Path() {
	case "math/rand":
		repl = qual.Name + ".New(" + qual.Name + ".NewSource(1))"
	case "math/rand/v2":
		if f.Name() == "N" {
			return nil // generic helper, not a Rand method
		}
		repl = qual.Name + ".New(" + qual.Name + ".NewPCG(1, 2))"
	default:
		return nil
	}
	return &framework.SuggestedFix{
		Message:   "draw from an explicitly seeded generator",
		TextEdits: []framework.TextEdit{{Pos: qual.Pos(), End: qual.End(), NewText: []byte(repl)}},
	}
}

// checkMapRange flags map-ordered loops that feed communication.
func checkMapRange(pass *framework.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var culprit *ast.CallExpr
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if culprit != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if vmlib.IsProcMethod(pass.TypesInfo, call, "Send", "SendOwned", "Exchange", "ExchangeAll", "Barrier", "BeginSpan") ||
			vmlib.IsCollectiveCall(pass.TypesInfo, call) {
			culprit = call
			return false
		}
		return true
	})
	if culprit != nil {
		name := "a communication call"
		if f := vmlib.Callee(pass.TypesInfo, culprit); f != nil {
			name = f.Name()
		}
		pass.Reportf(rng.Pos(),
			"map iteration order is nondeterministic and this loop feeds %s; iterate over sorted keys instead",
			name)
	}
}

// checkSPMDBodies finds the SPMD entry points of a file — function
// literals and declarations with a *hypercube.Proc or *core.Env
// parameter — and audits each for unsynchronized writes to shared
// state. Literals nested inside an already-audited SPMD body are
// covered by the enclosing audit (their captured-variable test runs
// against the outermost body's scope) and are not audited twice.
func checkSPMDBodies(pass *framework.Pass, file *ast.File) {
	var bodies []*ast.FuncLit // outermost SPMD literals, in order
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || !isSPMDFunc(pass, lit.Type) {
			return true
		}
		for _, b := range bodies {
			if lit.Pos() >= b.Pos() && lit.End() <= b.End() {
				return true // nested inside an audited body
			}
		}
		bodies = append(bodies, lit)
		return true
	})
	for _, lit := range bodies {
		checkSharedWrites(pass, lit.Body, lit.Pos(), lit.End())
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !isSPMDFunc(pass, fd.Type) {
			continue
		}
		checkSharedWrites(pass, fd.Body, fd.Pos(), fd.End())
	}
}

// isSPMDFunc reports whether the signature marks an SPMD body: a
// parameter of type *hypercube.Proc or *core.Env.
func isSPMDFunc(pass *framework.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		ptr, ok := tv.Type.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			continue
		}
		switch {
		case obj.Name() == "Proc" && obj.Pkg().Path() == vmlib.HypercubePath,
			obj.Name() == "Env" && obj.Pkg().Path() == vmlib.CorePath:
			return true
		}
	}
	return false
}

// checkSharedWrites flags plain assignments and increments to
// variables declared outside [bodyStart, bodyEnd] — state every
// processor writes, so its final value depends on the order processors
// run in. Writes inside an if whose condition reads processor
// identity (p.ID(), e.GridRow/GridCol) are the sanctioned
// one-writer idiom and pass; so do indexed writes (out[p.ID()] = ...),
// whose element is per-processor by convention and whose aliasing the
// race detector, not a linter, must judge.
func checkSharedWrites(pass *framework.Pass, body *ast.BlockStmt, bodyStart, bodyEnd token.Pos) {
	// Collect the guarded regions: bodies (and else branches — both
	// sides of an identity branch execute on disjoint processor sets)
	// of ifs conditioned on processor identity.
	var guarded [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !readsIdentity(pass, ifs.Cond) {
			return true
		}
		guarded = append(guarded, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		if ifs.Else != nil {
			guarded = append(guarded, [2]token.Pos{ifs.Else.Pos(), ifs.Else.End()})
		}
		return true
	})
	isGuarded := func(pos token.Pos) bool {
		for _, g := range guarded {
			if pos >= g[0] && pos <= g[1] {
				return true
			}
		}
		return false
	}
	flag := func(id *ast.Ident) {
		if id.Name == "_" || isGuarded(id.Pos()) {
			return
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return
		}
		if obj.Pos() >= bodyStart && obj.Pos() <= bodyEnd {
			return // declared inside the SPMD body: per-processor state
		}
		pass.Reportf(id.Pos(),
			"write to %s, captured from outside the SPMD body, races across processors: its value depends on the order they run in; index it by p.ID() or guard the write with a processor-identity check",
			id.Name)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					flag(id)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := st.X.(*ast.Ident); ok {
				flag(id)
			}
		}
		return true
	})
}

// readsIdentity reports whether expr contains a direct processor-
// identity read.
func readsIdentity(pass *framework.Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && vmlib.IsIdentityRead(pass.TypesInfo, call) {
			found = true
			return false
		}
		return true
	})
	return found
}
