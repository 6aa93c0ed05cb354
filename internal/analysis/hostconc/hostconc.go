// Package hostconc is the base analyzer of the host-concurrency
// family: it computes, per package, which functions may *block* the
// calling goroutine (channel operations, selects without a default,
// network I/O, Machine.Run, WaitGroup waits — transitively through
// same-package calls) and which mutexes each function (transitively)
// acquires — and exports both summaries as a package fact, so they
// survive package boundaries.
//
// It reports no diagnostics of its own. lockdiscipline lists it in
// Requires and consumes its Result: a classifier that answers "can
// this call block?" and "which locks does this call take?" for local
// functions (summarized in this pass), for imported functions
// (summarized when their package was analyzed, carried here as
// facts), and for the directly-matched blocking entry points
// (WaitGroup.Wait, net/http writes, hypercube.Machine.Run).
//
// Cross-package flow is the point: serve's SSE handler writes frames
// through a helper that wraps fmt.Fprintf over an http.ResponseWriter,
// and the executor runs workloads through bench.RunSpec.RunOn, which
// hides Machine.Run two calls deep. Without facts the may-block
// summary stops at the package boundary and "blocking call while a
// mutex is held" silently misses exactly the interesting sites.
//
// Unlike the SPMD analyzers, summaries are computed for *every*
// package (any function anywhere can end up called under a lock), but
// the family's diagnostics are scoped to the host-concurrent code:
// internal/serve, internal/metrics, cmd/vmprimd, cmd/vmload, and the
// machinepool.go file of internal/hypercube — the rest of the
// hypercube package is the virtual-time simulator, which runs a
// machine's processors as coroutines on one thread over plain memory
// (no locks, no channels inside a run), so it has no host concurrency
// for this family to police; the order it runs processors in is
// simdeterminism's and TestScheduleIndependence's concern.
package hostconc

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the hostconc entry point.
var Analyzer = &framework.Analyzer{
	Name:      "hostconc",
	Doc:       "summarize may-block and mutex-acquire behavior of functions (facts only, no diagnostics)",
	FactTypes: []framework.Fact{(*Fact)(nil)},
	Run:       run,
}

// FuncSummary is one function's host-concurrency summary.
type FuncSummary struct {
	// Name is the qualified name used in facts: "TypeName.Method" for
	// methods, the bare name for functions.
	Name string
	// Blocker, when non-empty, says why the function may block the
	// calling goroutine — the root cause, e.g. "a send on ch" or "a
	// network Write (net/http)", even when it is reached through a
	// chain of calls.
	Blocker string
	// Acquires lists the mutexes the function (transitively) locks,
	// as type-level keys: "TypeName.field" for struct-field mutexes,
	// "#name" for package-level ones.
	Acquires []string
}

// Fact is one package's summary: every function with a non-empty
// blocker or acquire set.
type Fact struct {
	Funcs []FuncSummary
}

// AFact marks Fact as a framework fact.
func (*Fact) AFact() {}

// InDiagScope reports whether the hostconc family reports diagnostics
// for the file holding pos: the serving plane and its load driver as
// whole packages (fixture packages beneath them included), plus the
// machine pool file of the hypercube package. Test files are
// excluded, as everywhere.
func InDiagScope(pass *framework.Pass, pos token.Pos) bool {
	if vmlib.IsTestFile(pass.Fset, pos) {
		return false
	}
	p := pass.Pkg.Path()
	switch {
	case vmlib.InScope(p, vmlib.ServePath, vmlib.MetricsPath, vmlib.VmprimdPath, vmlib.VmloadPath):
		return true
	case vmlib.InScope(p, vmlib.HypercubePath):
		base := filepath.Base(pass.Fset.Position(pos).Filename)
		return base == "machinepool.go"
	}
	return false
}

// InspectSync walks node visiting only code that runs synchronously on
// the current goroutine: it descends into immediately-invoked function
// literals, but skips literal values that merely escape and the
// spawned call of a go statement (whose arguments are still evaluated
// synchronously, and are visited).
func InspectSync(node ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				InspectSync(a, visit)
			}
			return false
		case *ast.CallExpr:
			if !visit(n) {
				return false
			}
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				InspectSync(lit.Body, visit)
				for _, a := range n.Args {
					InspectSync(a, visit)
				}
				return false
			}
			return true
		}
		return visit(n)
	})
}

// MutexOp classifies call as a sync.Mutex/RWMutex acquire or release,
// returning the mutex-valued receiver expression.
func MutexOp(info *types.Info, call *ast.CallExpr) (mx ast.Expr, acquire, ok bool) {
	f := vmlib.Callee(info, call)
	if f == nil {
		return nil, false, false
	}
	switch f.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	if !vmlib.IsMethod(f, "sync", "Mutex", f.Name()) && !vmlib.IsMethod(f, "sync", "RWMutex", f.Name()) {
		return nil, false, false
	}
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, false, false // method value; no receiver expression to track
	}
	return sel.X, acquire, true
}

// MutexKey renders the mutex expression of a MutexOp as a type-level
// key usable across functions ("TypeName.field" for struct fields,
// "#name" for package-level vars, "TypeName.Mutex" for a promoted
// embedded mutex) plus the receiver-path text ("b" for b.mu) that
// lets a caller match the key against a specific instance. Local
// mutex variables have no cross-function identity and yield "".
func MutexKey(info *types.Info, mx ast.Expr) (typeKey, root string) {
	switch e := ast.Unparen(mx).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "#" + e.Name, ""
		}
		// s.Lock() on a struct embedding sync.Mutex: the receiver is
		// the struct itself.
		if named := derefNamed(info.TypeOf(e)); named != nil && !isSyncType(named) {
			return named.Obj().Name() + ".Mutex", types.ExprString(e)
		}
	case *ast.SelectorExpr:
		if named := derefNamed(info.TypeOf(e.X)); named != nil {
			return named.Obj().Name() + "." + e.Sel.Name, types.ExprString(e.X)
		}
	}
	return "", ""
}

func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func isSyncType(named *types.Named) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// IsChan reports whether t's underlying type is a channel.
func IsChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// IsDoneChan reports whether t is a done-signal channel: any-direction
// chan struct{} (which is also what context's Done() returns).
func IsDoneChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// SelectHasDefault reports whether sel carries a default clause.
func SelectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// Result is the classifier handed to dependent analyzers.
type Result struct {
	info *types.Info
	// local summarizes this package's functions.
	local map[*types.Func]*FuncSummary
	// imported holds summaries resolved from facts, keyed
	// "pkgpath:qualified".
	imported map[string]*FuncSummary
}

// Summary returns f's summary — local or fact-imported — or nil when
// nothing blocking or lock-acquiring is known about it.
func (r *Result) Summary(f *types.Func) *FuncSummary {
	if f == nil {
		return nil
	}
	if s, ok := r.local[f]; ok {
		return s
	}
	return r.imported[vmlib.FactKey(f)]
}

// ioVerbs are the method/function names that perform network I/O when
// they belong to net or net/http: writes flush through the kernel
// socket buffer, reads and accepts park until data arrives, and the
// client/server entry points do both.
var ioVerbs = map[string]bool{
	"Write": true, "WriteString": true, "WriteHeader": true, "Flush": true,
	"Read": true, "ReadFrom": true, "WriteTo": true, "Accept": true,
	"Serve": true, "ServeTLS": true, "ListenAndServe": true, "ListenAndServeTLS": true,
	"Shutdown": true, "Dial": true, "DialTimeout": true,
	"Do": true, "Get": true, "Head": true, "Post": true, "PostForm": true,
}

// BlockingCall reports why call may block the current goroutine, or
// ("", "") when it cannot tell. desc is the site message ("a call to
// writeSSE, which may block (a fmt.Fprintf to a network writer)");
// root is the underlying cause alone, suitable for storing in a
// summary without growing along call chains. sync.Mutex.Lock is
// deliberately *not* a blocker: waiting on a lock is layered locking,
// which the double-acquire check polices instead — this classifier
// targets unbounded waits on I/O and channel peers.
func (r *Result) BlockingCall(call *ast.CallExpr) (desc, root string) {
	f := vmlib.Callee(r.info, call)
	if f == nil {
		return "", ""
	}
	if d := knownBlocker(f); d != "" {
		return d, d
	}
	if d := r.netPrint(f, call); d != "" {
		return d, d
	}
	if s := r.Summary(f); s != nil && s.Blocker != "" {
		return "a call to " + vmlib.QualifiedName(f) + ", which may block (" + s.Blocker + ")", s.Blocker
	}
	return "", ""
}

// knownBlocker matches the directly-known blocking entry points.
func knownBlocker(f *types.Func) string {
	if vmlib.IsMethod(f, "sync", "WaitGroup", "Wait") {
		return "a sync.WaitGroup Wait"
	}
	if vmlib.IsMethod(f, "sync", "Cond", "Wait") {
		return "a sync.Cond Wait"
	}
	if vmlib.IsMethod(f, vmlib.HypercubePath, "Machine", "Run") {
		return "a Machine.Run"
	}
	if vmlib.IsMethod(f, vmlib.HypercubePath, "Machine", "Close") {
		return "a Machine.Close"
	}
	pkg := f.Pkg()
	if pkg == nil {
		return ""
	}
	if pkg.Path() == "time" && f.Name() == "Sleep" {
		return "a time.Sleep"
	}
	if (pkg.Path() == "net" || vmlib.InScope(pkg.Path(), "net")) && ioVerbs[f.Name()] {
		return "a network " + f.Name() + " (" + pkg.Path() + ")"
	}
	return ""
}

// netPrint matches fmt print calls whose writer is a net or net/http
// type (the SSE frame writer's shape); a print into a socket parks
// with the socket.
func (r *Result) netPrint(f *types.Func, call *ast.CallExpr) string {
	if f.Pkg() == nil || f.Pkg().Path() != "fmt" || len(call.Args) == 0 {
		return ""
	}
	switch f.Name() {
	case "Fprint", "Fprintf", "Fprintln":
	default:
		return ""
	}
	named := derefNamed(r.info.TypeOf(call.Args[0]))
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	if p := named.Obj().Pkg().Path(); p == "net" || vmlib.InScope(p, "net") {
		return "a fmt." + f.Name() + " to a network writer"
	}
	return ""
}

// BlockOps visits every operation in node that can block the
// executing goroutine: channel sends and receives, ranges over
// channels, selects without a default, and calls BlockingCall
// classifies. Escaping function literals and spawned go calls are
// skipped (they run on other goroutines); the clauses of a select
// with a default are non-blocking by construction, so only their
// bodies are scanned.
func (r *Result) BlockOps(node ast.Node, visit func(pos token.Pos, desc, root string)) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				r.BlockOps(a, visit)
			}
			return false
		case *ast.SelectStmt:
			if !SelectHasDefault(n) {
				d := "a select with no default case"
				visit(n.Select, d, d)
			}
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					r.BlockOps(s, visit)
				}
			}
			return false
		case *ast.SendStmt:
			d := "a send on " + types.ExprString(n.Chan)
			visit(n.Arrow, d, d)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				d := "a receive from " + types.ExprString(n.X)
				visit(n.OpPos, d, d)
			}
			return true
		case *ast.RangeStmt:
			if IsChan(r.info.TypeOf(n.X)) {
				d := "a range over channel " + types.ExprString(n.X)
				visit(n.For, d, d)
			}
			return true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				r.BlockOps(lit.Body, visit)
				for _, a := range n.Args {
					r.BlockOps(a, visit)
				}
				return false
			}
			if desc, root := r.BlockingCall(n); desc != "" {
				visit(n.Pos(), desc, root)
			}
			return true
		}
		return true
	})
}

func (s *FuncSummary) acquires(key string) bool {
	for _, k := range s.Acquires {
		if k == key {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) (any, error) {
	res := &Result{
		info:     pass.TypesInfo,
		local:    make(map[*types.Func]*FuncSummary),
		imported: make(map[string]*FuncSummary),
	}
	// Summaries exist only for this module's packages: the go vet
	// driver also runs facts analyzers over the standard library's
	// source units, and summarizing those drowns the classifier in
	// runtime internals (every allocation "may block" because the GC's
	// start-the-world handshake receives from a channel). The standard
	// library is modeled solely by the explicit knownBlocker/netPrint
	// entries, which name the operations that block on behalf of the
	// *caller*.
	if !vmlib.InModule(pass.Pkg.Path()) {
		return res, nil
	}

	// Resolve every visible fact. The store holds the facts of all
	// packages analyzed before this one (standalone) or reachable
	// through dependency vetx files (vet driver). Facts from outside
	// the module are skipped for the same reason run skips computing
	// them — defense against a store populated by an older binary.
	for _, pf := range pass.AllPackageFacts() {
		if !vmlib.InModule(pf.Path) {
			continue
		}
		fact := pf.Fact.(*Fact)
		for i := range fact.Funcs {
			s := fact.Funcs[i]
			res.imported[pf.Path+":"+s.Name] = &s
		}
	}

	// Collect this package's function bodies (test files excluded, as
	// everywhere).
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					bodies[obj] = fn
					res.local[obj] = &FuncSummary{Name: vmlib.QualifiedName(obj)}
				}
			}
		}
	}

	// Direct acquires, then one fixpoint growing blockers and
	// transitive acquires together: a caller of a blocking helper
	// blocks, a caller of a locking helper locks.
	for obj, fn := range bodies {
		s := res.local[obj]
		InspectSync(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if mx, acquire, ok := MutexOp(pass.TypesInfo, call); ok && acquire {
					if tk, _ := MutexKey(pass.TypesInfo, mx); tk != "" && !s.acquires(tk) {
						s.Acquires = append(s.Acquires, tk)
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			s := res.local[obj]
			if s.Blocker == "" {
				res.BlockOps(fn.Body, func(_ token.Pos, _, root string) {
					if s.Blocker == "" {
						s.Blocker = root
						changed = true
					}
				})
			}
			InspectSync(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				cs := res.Summary(vmlib.Callee(pass.TypesInfo, call))
				if cs == nil || cs == s {
					return true
				}
				for _, k := range cs.Acquires {
					if !s.acquires(k) {
						s.Acquires = append(s.Acquires, k)
						changed = true
					}
				}
				return true
			})
		}
	}

	// Export the summary for importers. Empty summaries are not
	// exported: absence and emptiness mean the same thing.
	fact := &Fact{}
	for _, s := range res.local {
		if s.Blocker == "" && len(s.Acquires) == 0 {
			continue
		}
		sort.Strings(s.Acquires)
		fact.Funcs = append(fact.Funcs, *s)
	}
	sort.Slice(fact.Funcs, func(i, j int) bool { return fact.Funcs[i].Name < fact.Funcs[j].Name })
	if len(fact.Funcs) > 0 {
		pass.ExportPackageFact(fact)
	}
	return res, nil
}
