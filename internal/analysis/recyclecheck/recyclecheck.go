// Package recyclecheck statically enforces the buffer-ownership
// discipline of the simulator's machine-wide buffer pool: every buffer a
// function obtains from Proc.GetBuf, Proc.Recv, Proc.Exchange or
// Proc.ExchangeAll must be discharged — recycled back to the pool,
// returned to the caller, or handed off into a longer-lived structure
// — before the function is done with it. A buffer with no discharging
// use at all is a guaranteed pool leak that the runtime allocation
// guards only observe in aggregate, after the fact.
//
// The check is intentionally flow-insensitive: it asks whether a
// discharging use exists anywhere in the function, not whether one
// exists on every path. That keeps it free of false positives on the
// collectives' branch-heavy protocol code, at the cost of missing
// leaks that occur only on some paths. Leaks on panic paths are
// deliberately out of scope — a panic aborts the whole Run and the
// pools are per-run state, so nothing is actually lost.
//
// Discharging uses of a tracked buffer v:
//
//   - p.Recycle(v) — returned to the pool;
//   - p.SendOwned(d, tag, v) — the buffer itself rides the link and
//     belongs to the receiver;
//   - any appearance inside a return statement — ownership passes to
//     the caller;
//   - v (or a reslice v[i:j], which shares the backing array) assigned
//     to another variable, stored into a field, element or composite
//     literal, or appended as an element — ownership moves to the new
//     holder, whose own obligations are that holder's problem;
//   - v passed directly to a call as a fresh expression (f(p.GetBuf(n))
//     — an explicit hand-off);
//   - v passed to a function known to discharge that parameter — a
//     sink. Sinks are summarized per package (any function that
//     recycles, stores or returns one of its slice
//     parameters) and the summary is exported as a package fact, so a
//     caller in another package that hands its buffer to
//     rcout.Consume(p, buf) is credited exactly as a same-package
//     caller would be.
//
// Everything else — indexing, ranging, len/cap, copy, payload
// arguments to Send/Exchange (which copy), combiner arguments — is a
// borrow and leaves the obligation standing.
//
// A buffer discharged twice (SendOwned and then Recycle, say) is out
// of scope: without flow the check cannot tell that from the two arms
// of "send it if there is a partner, else recycle it", which is
// correct code.
//
// Missing-Recycle diagnostics carry a suggested fix (inserting
// p.Recycle(buf) after the buffer's last use) when the insertion point
// is unambiguous; vmlint -fix applies it.
package recyclecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the recyclecheck entry point.
var Analyzer = &framework.Analyzer{
	Name:      "recyclecheck",
	Doc:       "check that pooled buffers from GetBuf/Recv are recycled, returned, or handed off",
	FactTypes: []framework.Fact{(*Fact)(nil)},
	Run:       run,
}

// Fact is one package's ownership summary: its sink functions — the
// package-level functions that discharge one or more of their slice
// parameters — with the zero-based indices of the discharged
// parameters. Both lists are sorted, so the encoding is deterministic.
type Fact struct {
	Sinks []Sink
}

// A Sink names one parameter-discharging function.
type Sink struct {
	Name   string
	Params []int
}

// AFact marks Fact as a framework fact.
func (*Fact) AFact() {}

// originMethods obtain pool-owned buffers.
var originMethods = []string{"GetBuf", "Recv", "Exchange", "ExchangeAll"}

// sinkSet answers "does passing an argument at this parameter index of
// this function transfer ownership?" for both local functions (by
// object) and imported ones (by package-qualified name, from facts).
type sinkSet struct {
	local    map[*types.Func]map[int]bool
	imported map[string]map[int]bool // "pkgpath:Name" -> param indices
}

func (s *sinkSet) discharges(f *types.Func, param int) bool {
	if f == nil {
		return false
	}
	if ps, ok := s.local[f]; ok && ps[param] {
		return true
	}
	if f.Pkg() != nil {
		if ps, ok := s.imported[f.Pkg().Path()+":"+f.Name()]; ok && ps[param] {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) (any, error) {
	sinks := &sinkSet{
		local:    make(map[*types.Func]map[int]bool),
		imported: make(map[string]map[int]bool),
	}
	for _, pf := range pass.AllPackageFacts() {
		for _, s := range pf.Fact.(*Fact).Sinks {
			ps := make(map[int]bool, len(s.Params))
			for _, i := range s.Params {
				ps[i] = true
			}
			sinks.imported[pf.Path+":"+s.Name] = ps
		}
	}

	var fns []*ast.FuncDecl
	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fns = append(fns, fn)
			}
		}
	}

	// Summarize local sinks to a fixpoint before checking obligations:
	// a helper that forwards its parameter to another sink is itself a
	// sink, and obligations discharged through either must not be
	// reported.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if summarizeSinks(pass, fn, sinks) {
				changed = true
			}
		}
	}

	// The audit scope gates only the reporting. Sinks are summarized
	// and exported everywhere: a core function that hands its buffer
	// to a helper in an out-of-scope package still deserves the
	// credit, so that package's fact must exist.
	if vmlib.InScope(pass.Pkg.Path(), vmlib.CollectivePath, vmlib.CorePath, vmlib.AppsPath) ||
		vmlib.InTopLevelScope(pass.Pkg.Path()) {
		for _, fn := range fns {
			checkFunc(pass, fn, sinks)
		}
	}

	exportFact(pass, sinks)
	return nil, nil
}

// summarizeSinks records which of fn's slice parameters fn discharges,
// reporting whether that added new information.
func summarizeSinks(pass *framework.Pass, fn *ast.FuncDecl, sinks *sinkSet) bool {
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok || fn.Recv != nil {
		return false // method sinks are out of scope: facts name package-level functions
	}
	sig := obj.Type().(*types.Signature)
	paramIndex := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, isSlice := p.Type().Underlying().(*types.Slice); isSlice {
			paramIndex[p] = i
		}
	}
	if len(paramIndex) == 0 {
		return false
	}
	changed := false
	framework.WalkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		pobj := pass.TypesInfo.Uses[id]
		i, isParam := paramIndex[pobj]
		if !isParam || (sinks.local[obj] != nil && sinks.local[obj][i]) {
			return true
		}
		if discharges(pass.TypesInfo, id, stack, sinks) {
			if sinks.local[obj] == nil {
				sinks.local[obj] = make(map[int]bool)
			}
			sinks.local[obj][i] = true
			changed = true
		}
		return true
	})
	return changed
}

// exportFact publishes the package's sink summary for its importers.
func exportFact(pass *framework.Pass, sinks *sinkSet) {
	var fact Fact
	for f, ps := range sinks.local {
		if !f.Exported() {
			continue // unexported functions are uncallable from importers
		}
		s := Sink{Name: f.Name()}
		for i := range ps {
			s.Params = append(s.Params, i)
		}
		sort.Ints(s.Params)
		fact.Sinks = append(fact.Sinks, s)
	}
	if len(fact.Sinks) == 0 {
		return
	}
	sort.Slice(fact.Sinks, func(i, j int) bool { return fact.Sinks[i].Name < fact.Sinks[j].Name })
	pass.ExportPackageFact(&fact)
}

// obligation is one tracked buffer: the variable bound to an origin
// call, and whether any discharging use was seen.
type obligation struct {
	obj        types.Object
	origin     *ast.CallExpr
	method     string
	discharged bool
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl, sinks *sinkSet) {
	info := pass.TypesInfo
	var obls []*obligation

	// Pass 1: find origin calls and classify their immediate context.
	framework.WalkStack(fn, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !vmlib.IsProcMethod(info, call, originMethods...) {
			return true
		}
		method := vmlib.Callee(info, call).Name()
		// Walk up through reslices of the fresh buffer (GetBuf(n)[:0])
		// to the node that gives the call its meaning.
		top := ast.Node(call)
		i := len(stack) - 1
		for ; i >= 0; i-- {
			if se, ok := stack[i].(*ast.SliceExpr); ok && se.X == top {
				top = se
				continue
			}
			if pe, ok := stack[i].(*ast.ParenExpr); ok {
				top = pe
				continue
			}
			break
		}
		if i < 0 {
			return true
		}
		switch parent := stack[i].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "result of %s is dropped; the buffer can never be recycled", method)
		case *ast.AssignStmt:
			if obj := lhsObject(info, parent, top); obj != nil {
				obls = append(obls, &obligation{obj: obj, origin: call, method: method})
			} else if blankLHS(parent, top) {
				pass.Reportf(call.Pos(), "result of %s is assigned to _; the buffer can never be recycled", method)
			}
			// A non-ident LHS (field, element) is an escaping store:
			// ownership moves into the structure, nothing to track.
		case *ast.ValueSpec:
			for j, v := range parent.Values {
				if v == top && j < len(parent.Names) {
					if obj := info.Defs[parent.Names[j]]; obj != nil && parent.Names[j].Name != "_" {
						obls = append(obls, &obligation{obj: obj, origin: call, method: method})
					}
				}
			}
		}
		// Direct use as a call argument, return value, etc. is an
		// explicit hand-off of the fresh buffer: nothing to track.
		return true
	})
	if len(obls) == 0 {
		return
	}
	byObj := make(map[types.Object][]*obligation, len(obls))
	for _, o := range obls {
		byObj[o.obj] = append(byObj[o.obj], o)
	}

	// Pass 2: scan every use of the tracked variables for a
	// discharging context, remembering the last statement each tracked
	// variable appears in — the insertion point for the Recycle fix.
	lastUse := make(map[types.Object]ast.Stmt)
	framework.WalkStack(fn, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		os, tracked := byObj[obj]
		if !tracked {
			return true
		}
		if st := blockStmtOf(stack); st != nil {
			if prev := lastUse[obj]; prev == nil || st.End() > prev.End() {
				lastUse[obj] = st
			}
		}
		if info.Uses[id] != nil && discharges(info, id, stack, sinks) {
			for _, o := range os {
				o.discharged = true
			}
		}
		return true
	})

	for _, o := range obls {
		if o.discharged {
			continue
		}
		d := framework.Diagnostic{
			Pos: o.origin.Pos(),
			Message: fmt.Sprintf(
				"buffer %q from %s is never recycled, returned, or handed off (pool leak)",
				o.obj.Name(), o.method),
		}
		if fix := recycleFix(pass, o, lastUse[o.obj]); fix != nil {
			d.SuggestedFixes = []framework.SuggestedFix{*fix}
		}
		pass.Report(d)
	}
}

// blockStmtOf returns the outermost statement in stack whose parent is
// a block — the statement a fix can insert after — or nil when the
// identifier is not inside such a statement.
func blockStmtOf(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i > 0; i-- {
		st, ok := stack[i].(ast.Stmt)
		if !ok {
			continue
		}
		if _, ok := stack[i-1].(*ast.BlockStmt); ok {
			return st
		}
	}
	return nil
}

// recycleFix builds the "insert p.Recycle(buf) after the last use"
// fix, or nil when there is no unambiguous insertion point: the last
// use must be a plain statement (inserting after a return, branch or
// defer would be dead or wrong) and the origin must name its receiver
// with a simple expression the fix can repeat.
func recycleFix(pass *framework.Pass, o *obligation, last ast.Stmt) *framework.SuggestedFix {
	if last == nil {
		return nil
	}
	switch last.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt, *ast.DeferStmt:
		return nil
	}
	sel, ok := ast.Unparen(o.origin.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pos := pass.Fset.Position(last.Pos())
	indent := ""
	for i := 1; i < pos.Column; i++ {
		indent += "\t" // gofmt indents with tabs; a fixed file must stay gofmt-clean
	}
	text := "\n" + indent + recv.Name + ".Recycle(" + o.obj.Name() + ")"
	return &framework.SuggestedFix{
		Message:   "recycle the buffer after its last use",
		TextEdits: []framework.TextEdit{{Pos: last.End(), End: token.NoPos, NewText: []byte(text)}},
	}
}

// lhsObject returns the object of the simple identifier on the LHS
// matching rhs in a one-to-one assignment, for both := and =.
func lhsObject(info *types.Info, as *ast.AssignStmt, rhs ast.Node) types.Object {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, r := range as.Rhs {
		if r != rhs {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	return nil
}

// blankLHS reports whether rhs is assigned to the blank identifier.
func blankLHS(as *ast.AssignStmt, rhs ast.Node) bool {
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, r := range as.Rhs {
		if r == rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			return ok && id.Name == "_"
		}
	}
	return false
}

// discharges reports whether this use of a tracked buffer transfers
// ownership. stack is the chain of enclosing nodes, outermost first.
func discharges(info *types.Info, id *ast.Ident, stack []ast.Node, sinks *sinkSet) bool {
	// Walk outwards from the identifier through ownership-transparent
	// wrappers (reslices and parens keep the same backing array).
	child := ast.Node(id)
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			child = parent
			continue
		case *ast.SliceExpr:
			if parent.X == child {
				child = parent
				continue
			}
			return false // an index bound like buf[:n] — a read
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			return callDischarges(info, parent, child, sinks)
		case *ast.AssignStmt:
			// Discharge only when the (possibly resliced) buffer itself
			// is a RHS value; appearing on the LHS or inside an index
			// computation is not a transfer.
			for _, r := range parent.Rhs {
				if r == child {
					return true
				}
			}
			return false
		case *ast.KeyValueExpr:
			if parent.Value != child {
				return false
			}
			child = parent
			continue
		case *ast.CompositeLit:
			// The buffer is stored into a literal; ownership escapes
			// with the literal regardless of where it flows next.
			return true
		case *ast.SendStmt:
			return parent.Value == child
		case *ast.IndexExpr:
			// Indexing a slice-of-slices (the ExchangeAll result)
			// extracts an owned buffer: the element use decides.
			// Indexing a flat buffer is an element read, and a use as
			// the index is a read of something else entirely.
			if parent.X == child {
				if tv, ok := info.Types[parent]; ok {
					if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
						child = parent
						continue
					}
				}
			}
			return false
		case *ast.UnaryExpr, *ast.BinaryExpr, *ast.StarExpr, *ast.TypeAssertExpr:
			return false
		case *ast.RangeStmt:
			return false // iteration is a read
		default:
			return false
		}
	}
	return false
}

// callDischarges decides whether passing the buffer as arg to call
// transfers ownership: Recycle always does; SendOwned does for its
// payload, which the receiver owns from then on; append does for element arguments (not
// for the slice being grown, and not for v... which copies); a call
// to a summarized sink does for the discharged parameter positions;
// every other call is a borrow.
func callDischarges(info *types.Info, call *ast.CallExpr, arg ast.Node, sinks *sinkSet) bool {
	if vmlib.IsProcMethod(info, call, "Recycle") {
		return true
	}
	if vmlib.IsProcMethod(info, call, "SendOwned") {
		return len(call.Args) == 3 && call.Args[2] == arg
	}
	if vmlib.IsBuiltinCall(info, call, "append") {
		for i, a := range call.Args {
			if a == arg {
				return i > 0 && call.Ellipsis == 0
			}
		}
	}
	if f := vmlib.Callee(info, call); f != nil && call.Ellipsis == 0 {
		for i, a := range call.Args {
			if a == arg && sinks.discharges(f, i) {
				return true
			}
		}
	}
	return false
}
