// Package lockdiscipline statically proves three mutex contracts over
// the host-concurrent packages (serve, metrics, the hypercube pool and
// stream files, vmprimd, vmload):
//
//   - every Lock has a matching Unlock on every control-flow path —
//     the same package balance proof spanbalance runs over
//     BeginSpan/EndSpan, here one walk per distinct mutex of the
//     function;
//   - no path re-acquires a mutex it already holds, directly or
//     through a same-package call chain (hostconc's "acquires" fact):
//     sync.Mutex is not reentrant, so a double acquire self-deadlocks;
//   - no *blocking* operation runs while a mutex is held — channel
//     sends/receives outside a select with a default, selects without
//     a default, network I/O, Machine.Run, WaitGroup waits — directly
//     or through any call hostconc's "mayBlock" fact classifies. This
//     is the liveness contract the SSE broadcaster documents ("must
//     never block" under b.mu): a blocked lock holder stalls every
//     other goroutine that touches the same mutex, and on the serving
//     plane that is the whole daemon.
//
// Function literals are walked independently — a closure's locks
// balance against its own body. Deferred calls other than the mutex ops
// themselves are not scanned for blocking operations: whether a lock
// is still held when a defer fires is path-dependent, and hostconc's
// interprocedural summary already catches the caller-side version.
//
// When a function locks exactly once at its top level and never
// unlocks, the unbalanced-exit diagnostics carry a suggested fix that
// inserts the idiomatic `defer x.Unlock()`; vmlint -fix applies it.
package lockdiscipline

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"vmprim/internal/analysis/balance"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/hostconc"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the lockdiscipline entry point.
var Analyzer = &framework.Analyzer{
	Name:     "lockdiscipline",
	Doc:      "check Lock/Unlock balance, double acquires and blocking operations under held mutexes",
	Requires: []*framework.Analyzer{hostconc.Analyzer},
	Run:      run,
}

func run(pass *framework.Pass) (any, error) {
	res := pass.ResultOf[hostconc.Analyzer].(*hostconc.Result)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hostconc.InDiagScope(pass, fn.Pos()) {
				continue
			}
			// Function literals get their own independent walk: a
			// closure's locks balance against its own body, not its
			// lexical surroundings.
			for _, body := range framework.Bodies(fn) {
				checkFunc(pass, res, body)
			}
		}
	}
	return nil, nil
}

// lockSite identifies one mutex a function touches.
type lockSite struct {
	key     string // receiver-expression text, e.g. "b.mu" — the walk identity
	typeKey string // cross-function key from hostconc.MutexKey, e.g. "broadcaster.mu"
	root    string // receiver-path text, e.g. "b", for matching call receivers
}

// checkFunc runs one balance walk per distinct mutex the body touches
// (lock sites inside nested literals belong to the literals' own
// walks).
func checkFunc(pass *framework.Pass, res *hostconc.Result, body *ast.BlockStmt) {
	sites := map[string]lockSite{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if mx, _, ok := hostconc.MutexOp(pass.TypesInfo, n); ok {
				key := types.ExprString(mx)
				if _, seen := sites[key]; !seen {
					tk, root := hostconc.MutexKey(pass.TypesInfo, mx)
					sites[key] = lockSite{key: key, typeKey: tk, root: root}
				}
			}
		}
		return true
	})
	for _, k := range slices.Sorted(maps.Keys(sites)) {
		w := &walker{pass: pass, res: res, site: sites[k]}
		balance.Check(pass, body, balance.Pair{Op: w.ourOp, Release: "Unlock", Message: w.message, Held: w.held})
	}
}

// walker carries the per-function, per-mutex check context.
type walker struct {
	pass *framework.Pass
	res  *hostconc.Result
	site lockSite
}

// message words the balance findings for this walk's mutex. A return
// below its credits is left to the function-end wording.
func (w *walker) message(ev balance.Event, n int) string {
	k := w.site.key
	switch ev {
	case balance.Reacquire:
		return fmt.Sprintf("Lock of %s while already held on this path (sync.Mutex is not reentrant: this self-deadlocks)", k)
	case balance.Unmatched:
		return fmt.Sprintf("Unlock of %s without a matching Lock on this path", k)
	case balance.DeferInLoop:
		return fmt.Sprintf("deferred Unlock of %s inside a loop runs at function return, not at iteration end", k)
	case balance.ReturnOpen:
		if n > 0 {
			return fmt.Sprintf("return leaves %s locked on this path (Unlock is not deferred and this exit misses it)", k)
		}
	case balance.EndOpen:
		if n > 0 {
			return fmt.Sprintf("function ends with %s still locked (Lock without a matching Unlock)", k)
		}
		return fmt.Sprintf("deferred Unlock of %s fires with the mutex already unlocked on this path", k)
	case balance.IfSkew:
		return fmt.Sprintf("lock state of %s differs between the branches of this if (one side is missing a Lock or Unlock)", k)
	case balance.CaseSkew:
		return fmt.Sprintf("lock state of %s differs between the cases of this switch", k)
	case balance.LoopDrift:
		return fmt.Sprintf("loop body changes the hold depth of %s by %d per iteration", k, n)
	case balance.JumpSkew:
		return fmt.Sprintf("jumps with %s at a different hold depth than the enclosing loop's entry", k)
	}
	return ""
}

const stalls = "(a blocked holder stalls every contender; release the lock first or make the operation non-blocking)"

// held audits one statement, or the head of one branching statement,
// reached with the mutex held.
func (w *walker) held(n ast.Node) {
	switch n := n.(type) {
	case *ast.IfStmt:
		w.scanLocked(n.Cond)
	case *ast.ForStmt:
		w.scanLocked(n.Cond)
	case *ast.RangeStmt:
		if hostconc.IsChan(w.pass.TypesInfo.TypeOf(n.X)) {
			w.pass.Reportf(n.For, "a range over channel %s while %s is held %s", types.ExprString(n.X), w.site.key, stalls)
		}
		w.scanLocked(n.X)
	case *ast.SwitchStmt:
		w.scanLocked(n.Tag)
	case *ast.TypeSwitchStmt:
		w.scanLocked(n.Assign)
	case *ast.SelectStmt:
		if !hostconc.SelectHasDefault(n) {
			w.pass.Reportf(n.Select, "a select with no default case while %s is held %s", w.site.key, stalls)
		}
	default:
		// Leaf statements — calls, assignments, declarations, sends,
		// returns, the synchronously evaluated arguments of a go.
		w.scanLocked(n)
	}
}

// scanLocked reports the blocking operations in n (nil for an absent
// condition or tag) and its calls that re-acquire the held mutex.
func (w *walker) scanLocked(n ast.Node) {
	if n == nil {
		return
	}
	w.res.BlockOps(n, func(pos token.Pos, desc, _ string) {
		w.pass.Reportf(pos, "%s while %s is held %s", desc, w.site.key, stalls)
	})
	if w.site.typeKey == "" {
		return
	}
	hostconc.InspectSync(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, isMutexOp := hostconc.MutexOp(w.pass.TypesInfo, call); isMutexOp {
			return true // ops on our own mutex are the walk's business, on others layered locking
		}
		f := vmlib.Callee(w.pass.TypesInfo, call)
		s := w.res.Summary(f)
		if s == nil {
			return true
		}
		for _, k := range s.Acquires {
			if k != w.site.typeKey {
				continue
			}
			// A package-level mutex needs no receiver match, but only
			// within the declaring package ("#mu" keys from different
			// packages are different mutexes). A field mutex must be
			// reached through the same receiver path.
			if strings.HasPrefix(k, "#") {
				if f.Pkg() != w.pass.Pkg {
					continue
				}
			} else if receiverText(call) != w.site.root {
				continue
			}
			w.pass.Reportf(call.Pos(), "call to %s acquires %s, which is already held on this path (sync.Mutex is not reentrant: this self-deadlocks)",
				f.Name(), w.site.key)
		}
		return true
	})
}

// receiverText renders the receiver expression of a method call, for
// matching against the held mutex's root ("b" of "b.mu").
func receiverText(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}

// ourOp classifies call as a Lock/Unlock of this walk's mutex.
func (w *walker) ourOp(call *ast.CallExpr) (acquire, ok bool) {
	mx, acquire, isOp := hostconc.MutexOp(w.pass.TypesInfo, call)
	if !isOp || types.ExprString(mx) != w.site.key {
		return false, false
	}
	return acquire, true
}
