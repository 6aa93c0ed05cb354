package collorder

import (
	"go/ast"
	"go/types"
	"sort"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Summaries: which functions (transitively) perform a collective, and
// which return values derived from processor identity. collorder
// computes them for every package it sees, in scope or not, and
// exports them as a package fact, so they survive package boundaries.
//
// Cross-package flow is the point: a helper like
//
//	package grid
//	func MyRank(p *hypercube.Proc) int { return p.ID() % 4 }
//
// makes every caller of grid.MyRank identity-dependent, and a wrapper
// that hides a Reduce behind an exported function is still a
// collective at its call sites in other packages. Without facts both
// summaries stop at the package boundary and the check silently
// misses the divergence.

// Fact is one package's summary: the qualified names (TypeName.Method
// for methods, plain name for functions) of its collective-performing
// and identity-returning functions.
type Fact struct {
	Collective []string
	Identity   []string
}

// AFact marks Fact as a framework fact.
func (*Fact) AFact() {}

// summary classifies calls for one package: this package's functions
// (summarized here), imported ones (summarized when their package was
// analyzed, carried here as facts) and the directly-matched simulator
// entry points (vmlib).
type summary struct {
	info *types.Info
	// localColl / localIdent summarize this package's functions.
	localColl, localIdent map[*types.Func]bool
	// collNames / identNames hold "pkgpath:qualified" keys for
	// imported functions, resolved from facts.
	collNames, identNames map[string]bool
}

// isCollectiveCall reports whether call is a collective: a directly
// matched simulator entry point, or a function summarized (locally or
// by facts) as transitively performing one.
func (s *summary) isCollectiveCall(call *ast.CallExpr) bool {
	if vmlib.IsCollectiveCall(s.info, call) {
		return true
	}
	f := vmlib.Callee(s.info, call)
	return f != nil && (s.localColl[f] || s.collNames[vmlib.FactKey(f)])
}

// isIdentityCall reports whether call's result derives from processor
// identity: a direct identity read, or a call to a function
// summarized (locally or by facts) as returning identity.
func (s *summary) isIdentityCall(call *ast.CallExpr) bool {
	if vmlib.IsIdentityRead(s.info, call) {
		return true
	}
	f := vmlib.Callee(s.info, call)
	return f != nil && (s.localIdent[f] || s.identNames[vmlib.FactKey(f)])
}

// summarize computes pass's package summary and exports it as a fact.
func summarize(pass *framework.Pass) *summary {
	s := &summary{
		info:       pass.TypesInfo,
		localColl:  make(map[*types.Func]bool),
		localIdent: make(map[*types.Func]bool),
		collNames:  make(map[string]bool),
		identNames: make(map[string]bool),
	}

	// Resolve every visible fact into name sets. The store holds the
	// facts of all packages analyzed before this one (standalone) or
	// reachable through dependency vetx files (vet driver).
	for _, pf := range pass.AllPackageFacts() {
		fact := pf.Fact.(*Fact)
		for _, n := range fact.Collective {
			s.collNames[pf.Path+":"+n] = true
		}
		for _, n := range fact.Identity {
			s.identNames[pf.Path+":"+n] = true
		}
	}

	// Collect this package's function bodies (test files excluded, as
	// everywhere: tests deliberately exercise the broken patterns).
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

	// Two fixpoints, in order. Collective status first: it depends
	// only on itself (a caller of a collective-performing helper is
	// collective). Identity second: its taint uses collective status
	// as the sanitizer, so it must see the *complete* collective set —
	// judging a return value before a helper it flows through is known
	// to be replicated would taint it permanently (fixpoints only
	// add), misclassifying functions like ReduceColLoc whose results
	// ride an all-reduce and are identical on every processor.
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			if !s.localColl[obj] && s.performsCollective(fn) {
				s.localColl[obj] = true
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			if !s.localIdent[obj] && s.returnsIdentity(fn) {
				s.localIdent[obj] = true
				changed = true
			}
		}
	}

	// Export the summary for importers. An empty fact is not exported:
	// absence and emptiness mean the same thing to consumers.
	fact := &Fact{}
	for obj := range s.localColl {
		fact.Collective = append(fact.Collective, vmlib.QualifiedName(obj))
	}
	for obj := range s.localIdent {
		fact.Identity = append(fact.Identity, vmlib.QualifiedName(obj))
	}
	sort.Strings(fact.Collective)
	sort.Strings(fact.Identity)
	if len(fact.Collective) > 0 || len(fact.Identity) > 0 {
		pass.ExportPackageFact(fact)
	}
	return s
}

// performsCollective reports whether fn's body contains a collective
// call under the current summaries, including inside nested function
// literals: a function that builds and runs an SPMD closure performs
// that closure's collectives.
func (s *summary) performsCollective(fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && s.isCollectiveCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// returnsIdentity reports whether any return value of fn derives from
// processor identity under the current summaries. Nested literals are
// skipped: their returns are not fn's returns.
func (s *summary) returnsIdentity(fn *ast.FuncDecl) bool {
	tainted := s.tainted(fn)
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if s.taints(tainted, r) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// Identity taint: which local variables and expressions of a function
// derive from processor identity. The model is deliberately simple:
//
//   - sources are identity calls (isIdentityCall);
//   - taint propagates through local assignments and declarations to
//     a fixpoint;
//   - collective results sanitize: a collective's result is
//     replicated — identical on every processor even when its
//     arguments differ per processor — so a collective call
//     contributes no taint;
//   - a function literal in an expression does not taint the
//     host-side result of the call it is passed to (the SPMD body
//     handed to Machine.Run is its own scope).

// tainted computes the set of objects in fn tainted by processor
// identity, to a fixpoint over local assignments and declarations.
func (s *summary) tainted(fn ast.Node) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, r := range n.Rhs {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && s.taints(tainted, r) {
							changed = s.taint(tainted, id) || changed
						}
					}
				} else if len(n.Rhs) == 1 && s.taints(tainted, n.Rhs[0]) {
					for _, l := range n.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							changed = s.taint(tainted, id) || changed
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if s.taints(tainted, v) {
						if len(n.Names) == len(n.Values) {
							changed = s.taint(tainted, n.Names[i]) || changed
						} else {
							for _, name := range n.Names {
								changed = s.taint(tainted, name) || changed
							}
						}
					}
				}
			}
			return true
		})
	}
	return tainted
}

// taints reports whether e reads processor identity, given the tainted
// object set.
func (s *summary) taints(tainted map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if s.isIdentityCall(n) {
				found = true
				return false
			}
			if s.isCollectiveCall(n) {
				return false // replicated result: no taint in, none out
			}
		case *ast.Ident:
			if obj := s.info.Uses[n]; obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// taint marks id's object tainted, reporting whether that is new
// information.
func (s *summary) taint(tainted map[types.Object]bool, id *ast.Ident) bool {
	obj := s.info.Defs[id]
	if obj == nil {
		obj = s.info.Uses[id]
	}
	if obj == nil || tainted[obj] {
		return false
	}
	tainted[obj] = true
	return true
}
