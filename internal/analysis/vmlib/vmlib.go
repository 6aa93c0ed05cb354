// Package vmlib holds the type-resolution helpers shared by the
// vmlint analyzers: resolving call targets against the simulator's
// types (hypercube.Proc, core.Env, the collective package) and the
// package-scope rules that decide which parts of the tree each
// analyzer audits.
//
// All matching is by package path and name, never by object identity,
// so the analyzers work identically on the real tree and on the
// analysistest fixtures, whose stub packages are declared under the
// same import paths.
package vmlib

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Import paths of the simulator packages the analyzers know about.
const (
	HypercubePath  = "vmprim/internal/hypercube"
	CollectivePath = "vmprim/internal/collective"
	CorePath       = "vmprim/internal/core"
	AppsPath       = "vmprim/internal/apps"
	RouterPath     = "vmprim/internal/router"
	BenchPath      = "vmprim/internal/bench"

	// FacadePath is the public facade package, which re-exports the
	// machine model and kernels; ExamplesPath and CmdPath are the
	// top-level consumers written against it. SPMD code there is held
	// to the same contracts as the internal tree.
	FacadePath   = "vmprim"
	ExamplesPath = "vmprim/examples"
	CmdPath      = "vmprim/cmd"
)

// InScope reports whether pkgPath is one of the listed audit roots or
// lies beneath one (fixture packages sit beneath the real paths).
func InScope(pkgPath string, roots ...string) bool {
	for _, r := range roots {
		if pkgPath == r || strings.HasPrefix(pkgPath, r+"/") {
			return true
		}
	}
	return false
}

// InTopLevelScope reports whether pkgPath is the facade package
// itself or one of the example/command packages written against it.
// (FacadePath cannot go through InScope: every package in the module
// sits beneath "vmprim/".)
func InTopLevelScope(pkgPath string) bool {
	return pkgPath == FacadePath || InScope(pkgPath, ExamplesPath, CmdPath)
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The analyzers audit only non-test sources: tests deliberately
// exercise the failing runtime paths (unbalanced spans, seeded random
// workloads, host-time measurement) that the analyzers exist to keep
// out of the simulator proper.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Callee resolves the *types.Func a call invokes, or nil for calls
// through non-constant function values (combiners, kernel variables).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// FactKey is the cross-package lookup key of a function in the
// analyzers' package facts: package path plus QualifiedName.
func FactKey(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path() + ":" + QualifiedName(f)
}

// QualifiedName renders a function as it appears in a package fact:
// "TypeName.Method" for methods, the bare name for functions.
func QualifiedName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
	}
	return f.Name()
}

// IsMethod reports whether f is a method named name on the (possibly
// pointer) named type pkgPath.typeName.
func IsMethod(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// IsProcMethod reports whether call invokes the named method on
// *hypercube.Proc.
func IsProcMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	f := Callee(info, call)
	for _, n := range names {
		if IsMethod(f, HypercubePath, "Proc", n) {
			return true
		}
	}
	return false
}

// IsEnvMethod reports whether call invokes the named method on
// *core.Env.
func IsEnvMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	f := Callee(info, call)
	for _, n := range names {
		if IsMethod(f, CorePath, "Env", n) {
			return true
		}
	}
	return false
}

// envLocalMethods are the exported core.Env methods that perform no
// collective communication and may therefore run under
// processor-identity conditions: tag bookkeeping, grid coordinates,
// and profiling accessors. Every other exported Env method is treated
// as a collective by the SPMD-symmetry analyzer, which matches the
// package contract: Env operations are SPMD and must be called by
// every processor. Unexported Env methods are package-internal
// helpers with no such contract; callers inside core rely on the
// analyzer's interprocedural summary to classify them by what their
// bodies actually do.
var envLocalMethods = map[string]bool{
	"NextTag":   true,
	"NextTag2":  true,
	"Profiling": true,
	"GridRow":   true,
	"GridCol":   true,
	"SpanNote":  true,
}

// IsCollectiveCall reports whether call is an operation that every
// processor of the (sub)machine must execute together: a function of
// the collective package taking a *hypercube.Proc, a router entry
// point (Route and Request, as functions or router.Batch methods;
// NewBatch only reads the processor's address), a facade re-export (a package-level vmprim function whose
// first parameter is a *Proc or *Env — the kernels), a whole-cube
// Proc method (Barrier and the span pair), or an exported core.Env
// method outside the local allowlist.
//
// The facade's type aliases (vmprim.Proc = hypercube.Proc and so on)
// need no special handling — a method called through an alias still
// resolves to the underlying named type — but its package-level
// kernel functions carry the facade's own package path, which is why
// it appears here explicitly: without it, example and top-level test
// code calling vmprim.MatVecKernel would escape analysis.
func IsCollectiveCall(info *types.Info, call *ast.CallExpr) bool {
	f := Callee(info, call)
	if f == nil {
		return false
	}
	if pkg := f.Pkg(); pkg != nil && f.Type().(*types.Signature).Recv() == nil {
		if InScope(pkg.Path(), CollectivePath, RouterPath) && firstParamIsProc(f) && f.Name() != "NewBatch" {
			return true
		}
		if pkg.Path() == FacadePath && (firstParamIsProc(f) || firstParamIsEnv(f)) {
			return true
		}
	}
	if IsMethod(f, RouterPath, "Batch", "Route") ||
		IsMethod(f, RouterPath, "Batch", "Request") ||
		IsMethod(f, HypercubePath, "Proc", "Barrier") ||
		IsMethod(f, HypercubePath, "Proc", "BeginSpan") ||
		IsMethod(f, HypercubePath, "Proc", "EndSpan") {
		return true
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && IsMethod(f, CorePath, "Env", f.Name()) {
		return token.IsExported(f.Name()) && !envLocalMethods[f.Name()]
	}
	return false
}

// firstParamIsProc reports whether f's first parameter is a
// *hypercube.Proc — the signature convention of every collective.
func firstParamIsProc(f *types.Func) bool {
	return firstParamIsNamed(f, HypercubePath, "Proc")
}

// firstParamIsEnv reports whether f's first parameter is a *core.Env
// — the signature convention of the facade's SPMD kernels.
func firstParamIsEnv(f *types.Func) bool {
	return firstParamIsNamed(f, CorePath, "Env")
}

func firstParamIsNamed(f *types.Func, pkgPath, typeName string) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	p, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// IsIdentityRead reports whether call reads processor identity
// directly: Proc.ID, or the grid coordinates Env.GridRow/GridCol
// derived from it. These are the taint sources of the SPMD-symmetry
// analyses; values computed from them differ across processors.
func IsIdentityRead(info *types.Info, call *ast.CallExpr) bool {
	return IsProcMethod(info, call, "ID") || IsEnvMethod(info, call, "GridRow", "GridCol")
}

// IsSpanCall classifies call as BeginSpan or EndSpan on either
// hypercube.Proc or core.Env. The bool result reports a match; begin
// distinguishes the two.
func IsSpanCall(info *types.Info, call *ast.CallExpr) (begin, ok bool) {
	f := Callee(info, call)
	for _, owner := range [][2]string{{HypercubePath, "Proc"}, {CorePath, "Env"}} {
		if IsMethod(f, owner[0], owner[1], "BeginSpan") {
			return true, true
		}
		if IsMethod(f, owner[0], owner[1], "EndSpan") {
			return false, true
		}
	}
	return false, false
}

// IsBuiltinCall reports whether call invokes the named builtin (panic,
// close, …) and not a function or method that shadows it.
func IsBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
