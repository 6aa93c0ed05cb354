// Package collorder statically checks the all-paths sequence of
// communication operations in SPMD code. The runtime contract behind
// it: a run is deadlock-free only if every processor of a (sub)machine
// executes the same collectives in the same order with agreeing
// structural arguments (dimensions, masks, tags, roots), and pairwise
// operations (Send/Recv/Exchange) only pair off when both sides agree
// on the dimension and tag. Three shapes break it:
//
//   - identity-dependent *data* in a structural argument. The
//     canonical example ships in this repository as `vmprim
//     -demo-deadlock`:
//
//     d := (p.ID() & 1) ^ ((p.ID() >> 1) & 1)
//     p.Exchange(d, 7, payload)
//
//     Control flow is identical on every processor, but the exchange
//     dimension differs per rank, nobody's partner agrees, and all
//     four processors block in Recv. The payload may be rank-dependent
//     (it usually is); the *structural* arguments may not.
//
//   - identity-dependent *branches with divergent continuations*. For
//     each `if`/`switch` whose condition reads processor identity, the
//     analyzer compares the full sequence of communication events on
//     each arm, including everything after the statement (an early
//     `return` on one arm skips the collectives that follow). Arms
//     that perform the same events with the same structural arguments
//     are fine — `if p.GridRow() == 0 { sum = AllGather(...) } else {
//     sum = AllGather(...) }` with matching arguments is symmetric —
//     but a mismatch in operation, order, dim or tag is a static
//     deadlock.
//
//   - identity-dependent *loops*. A `for` whose condition, or a
//     `range` whose operand, reads identity runs its communication
//     events a different number of times on different processors:
//     `for i := 0; i < p.ID(); i++ { p.Barrier(1, 1) }`.
//
// Sequences are compared symbolically: constant arguments by value,
// identity-derived arguments as "rank-dependent", everything else by
// normalized source text. Untainted branches become choice points and
// loops become repetition groups, so differing-but-rank-independent
// control flow does not produce false positives: whichever way an
// untainted condition goes, it goes that way on every processor.
//
// Scope: the packages above the collective layer (core, apps, bench)
// and the top-level facade/example/command code. The collective and
// hypercube internals are exempt — rank-dependent sends along tree
// edges are exactly how the collectives are built.
// collorder summarizes every package it analyzes, in scope or not,
// and carries the identity and collective summaries across package
// boundaries as facts (summary.go), so a helper computing a dimension
// from p.ID() in another package still marks its callers' arguments
// rank-dependent.
package collorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the collorder entry point.
var Analyzer = &framework.Analyzer{
	Name:      "collorder",
	Doc:       "check that all processors execute the same communication sequence with agreeing structural arguments",
	FactTypes: []framework.Fact{(*Fact)(nil)},
	Run:       run,
}

// structuralParams are the parameter names that determine how an
// operation pairs or groups processors. They follow the simulator's
// uniform naming: d/dim/dims for hypercube dimensions, mask for
// subcube selection, tag/wantTag for message matching, rootRel/root
// for collective roots. Payload parameters (words, data, piece) are
// deliberately absent: per-rank payloads are the point of SPMD.
var structuralParams = map[string]bool{
	"d": true, "dim": true, "dims": true,
	"mask": true,
	"tag":  true, "wantTag": true,
	"rootRel": true, "root": true,
}

// pairwiseMethods are the point-to-point Proc operations whose
// structural arguments must also agree (between the two sides of the
// pairing) even though they are not collectives.
var pairwiseMethods = []string{"Send", "SendOwned", "SendOwnedParts", "Recv", "RecvParts", "Exchange", "ExchangeAll"}

func run(pass *framework.Pass) (any, error) {
	summary := summarize(pass)
	if !vmlib.InScope(pass.Pkg.Path(), vmlib.CorePath, vmlib.AppsPath, vmlib.BenchPath) &&
		!vmlib.InTopLevelScope(pass.Pkg.Path()) {
		return nil, nil
	}
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

// checker carries the per-scope analysis state.
type checker struct {
	pass     *framework.Pass
	summary  *summary
	tainted  map[types.Object]bool
	reported map[string]bool // position-keyed dedup across nested tainted branches
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl, summary *summary) {
	c := &checker{
		pass:     pass,
		summary:  summary,
		tainted:  summary.tainted(fn),
		reported: make(map[string]bool),
	}
	// Every function literal is its own SPMD scope: the closure handed
	// to Machine.Run is the SPMD body, the enclosing function is host
	// code.
	for _, scope := range framework.Bodies(fn) {
		c.checkArgs(scope)
		c.seqOf(scope.List)
	}
}

// isComm classifies the calls whose order and structural arguments the
// contract constrains: collectives (summaries and facts included) and
// the pairwise Proc operations.
func (c *checker) isComm(call *ast.CallExpr) bool {
	return c.summary.isCollectiveCall(call) ||
		vmlib.IsProcMethod(c.pass.TypesInfo, call, pairwiseMethods...)
}

// checkArgs is the structural-argument rule: within one scope, flag
// every communication call that receives an identity-derived value in
// a structural parameter.
func (c *checker) checkArgs(scope *ast.BlockStmt) {
	ast.Inspect(scope, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !c.isComm(call) {
			return true
		}
		f := vmlib.Callee(c.pass.TypesInfo, call)
		sig, _ := f.Type().(*types.Signature)
		if sig == nil {
			return true
		}
		for i, arg := range call.Args {
			name := paramName(sig, i)
			if !structuralParams[name] || !c.summary.taints(c.tainted, arg) {
				continue
			}
			key := fmt.Sprintf("arg:%d", arg.Pos())
			if c.reported[key] {
				continue
			}
			c.reported[key] = true
			c.pass.Reportf(arg.Pos(),
				"%s argument %q derives from processor identity: processors disagree on the pairing of this %s and the run deadlocks",
				f.Name(), name, opKind(c.pass.TypesInfo, call))
		}
		return true
	})
}

// opKind names the operation class for diagnostics.
func opKind(info *types.Info, call *ast.CallExpr) string {
	if vmlib.IsProcMethod(info, call, pairwiseMethods...) {
		return "exchange"
	}
	return "collective"
}

// paramName maps an argument index to its parameter name, folding
// variadic tails onto the final parameter.
func paramName(sig *types.Signature, i int) string {
	n := sig.Params().Len()
	if n == 0 {
		return ""
	}
	if i >= n {
		if sig.Variadic() {
			return sig.Params().At(n - 1).Name()
		}
		return ""
	}
	return sig.Params().At(i).Name()
}

// seqOf runs the symbolic sequence walk over a statement list. It
// returns the serialized communication events of the list and whether
// control cannot continue past it — either because every path
// terminates, or because a tainted branch folded the remainder of the
// list into its per-arm comparison already.
func (c *checker) seqOf(stmts []ast.Stmt) (items []string, term bool) {
	for idx, s := range stmts {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			items = append(items, c.events(s)...)
			return items, true

		case *ast.BranchStmt:
			return items, true // break/continue/goto: control leaves the list

		case *ast.BlockStmt:
			sub, t := c.seqOf(s.List)
			items = append(items, sub...)
			if t {
				return items, true
			}

		case *ast.LabeledStmt:
			sub, t := c.seqOf([]ast.Stmt{s.Stmt})
			items = append(items, sub...)
			if t {
				return items, true
			}

		case *ast.IfStmt:
			if s.Init != nil {
				items = append(items, c.events(s.Init)...)
			}
			var elseList []ast.Stmt
			if s.Else != nil {
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					elseList = blk.List
				} else {
					elseList = []ast.Stmt{s.Else}
				}
			}
			thenItems, thenTerm := c.seqOf(s.Body.List)
			elseItems, elseTerm := c.seqOf(elseList)
			if c.summary.taints(c.tainted, s.Cond) {
				rest, _ := c.seqOf(stmts[idx+1:])
				full := func(arm []string, t bool) []string {
					if t {
						return arm
					}
					return append(append([]string{}, arm...), rest...)
				}
				fullThen := full(thenItems, thenTerm)
				fullElse := full(elseItems, elseTerm)
				c.compareArms(s.Pos(), "branch", fullThen, fullElse)
				// The remainder of the list is folded into the per-arm
				// comparison, so consume it here — but control only
				// terminates if both arms do; otherwise the enclosing
				// list continues past this block, and reporting a false
				// termination would make the enclosing arm look like it
				// communicates nothing. Represent the statement by a
				// non-terminating arm so the folded continuation stays
				// visible to outer comparisons.
				rep, allTerm := fullThen, thenTerm && elseTerm
				if thenTerm && !elseTerm {
					rep = fullElse
				}
				return append(items, rep...), allTerm
			}
			items = append(items, choice(thenItems, thenTerm, elseItems, elseTerm)...)
			if thenTerm && elseTerm {
				return items, true
			}

		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			init, tag, bodies, hasDefault, taintFrom := c.switchParts(s)
			if init != nil {
				items = append(items, c.events(init)...)
			}
			if tag != nil {
				items = append(items, c.exprEvents(tag)...)
			}
			var arms [][]string
			var terms []bool
			for _, b := range bodies {
				sub, t := c.seqOf(b)
				arms = append(arms, sub)
				terms = append(terms, t)
			}
			if taintFrom >= 0 {
				// Guards before the first tainted one are uniform:
				// every processor agrees whether one of those arms is
				// taken (owner-subcube code leads with an untainted
				// "replicate everywhere" case). Divergence is only
				// possible among the arms from the first tainted guard
				// onward, plus the implicit empty default.
				rest, _ := c.seqOf(stmts[idx+1:])
				cArms, cTerms := arms[taintFrom:], terms[taintFrom:]
				if !hasDefault {
					cArms = append(cArms, nil)
					cTerms = append(cTerms, false)
				}
				var fulls [][]string
				for i := range cArms {
					if cTerms[i] {
						fulls = append(fulls, cArms[i])
					} else {
						fulls = append(fulls, append(append([]string{}, cArms[i]...), rest...))
					}
				}
				for i := 1; i < len(fulls); i++ {
					c.compareArms(s.Pos(), "switch", fulls[0], fulls[i])
				}
				var pre []string
				allTerm := true
				for i := 0; i < taintFrom; i++ {
					if p := serialize(arms[i], terms[i]); p != "" {
						pre = append(pre, p)
					}
					allTerm = allTerm && terms[i]
				}
				if len(pre) > 0 {
					items = append(items, "case{"+strings.Join(pre, "|")+"}")
				}
				// As with tainted ifs: the remainder is consumed into
				// the comparison; represent the switch by a
				// non-terminating arm and terminate only if every path
				// does.
				rep := fulls[0]
				for i := range fulls {
					allTerm = allTerm && cTerms[i]
					if !cTerms[i] {
						rep = fulls[i]
					}
				}
				return append(items, rep...), allTerm
			}
			if !hasDefault {
				arms = append(arms, nil)
				terms = append(terms, false)
			}
			all := true
			var parts []string
			for i := range arms {
				parts = append(parts, serialize(arms[i], terms[i]))
				all = all && terms[i]
			}
			if !uniform(parts) {
				items = append(items, "case{"+strings.Join(parts, "|")+"}")
			} else if len(arms) > 0 {
				items = append(items, arms[0]...)
			}
			if all {
				return items, true
			}

		case *ast.ForStmt:
			if s.Init != nil {
				items = append(items, c.events(s.Init)...)
			}
			items = append(items, c.loop(s.Pos(), s.Cond, s.Body)...)

		case *ast.RangeStmt:
			items = append(items, c.loop(s.Pos(), s.X, s.Body)...)

		case *ast.SelectStmt:
			var parts []string
			for _, cl := range s.Body.List {
				sub, t := c.seqOf(cl.(*ast.CommClause).Body)
				parts = append(parts, serialize(sub, t))
			}
			if !uniform(parts) {
				items = append(items, "select{"+strings.Join(parts, "|")+"}")
			}

		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred calls run on every exit path alike; goroutines
			// communicate on their own span of control.

		default:
			items = append(items, c.events(s)...)
		}
	}
	return items, false
}

// loop renders a for or range statement as one repetition group. A
// body with no communication events contributes nothing: its breaks
// and continues gate only the loop itself, so even a body full of
// control flow cannot skew the communication sequence. An untainted
// loop is fine — every processor iterates alike — but when the trip
// count reads identity (a tainted condition or range operand),
// processors run the body's events a different number of times.
func (c *checker) loop(pos token.Pos, bound ast.Expr, body *ast.BlockStmt) []string {
	items, _ := c.seqOf(body.List)
	if !hasEvent(items) {
		return nil
	}
	seq := strings.Join(items, " ")
	if bound != nil && c.summary.taints(c.tainted, bound) && c.once(pos) {
		c.pass.Reportf(pos,
			"communication sequence diverges on this identity-dependent loop: processors repeat [%s] a rank-dependent number of times and the run deadlocks",
			abbrev(seq))
	}
	return []string{"loop{" + seq + "}"}
}

// switchParts normalizes value and type switches into their shared
// shape and locates the identity taint in the dispatch: taintFrom is
// the index of the first arm whose selection can differ between
// processors (0 when the switch tag itself is tainted, the first
// tainted guard of a condition-less switch otherwise), or -1 when the
// dispatch is uniform.
func (c *checker) switchParts(s ast.Stmt) (init ast.Stmt, tag ast.Expr, bodies [][]ast.Stmt, hasDefault bool, taintFrom int) {
	taintFrom = -1
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init = s.Init
		tag = s.Tag
		if tag != nil && c.summary.taints(c.tainted, tag) {
			taintFrom = 0
		}
		for i, cl := range s.Body.List {
			cc := cl.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			if tag == nil && taintFrom < 0 {
				// Condition-less switch: the case guards are the
				// conditions, evaluated in order, so every guard
				// before the first tainted one is a uniform decision.
				for _, e := range cc.List {
					if c.summary.taints(c.tainted, e) {
						taintFrom = i
						break
					}
				}
			}
			bodies = append(bodies, cc.Body)
		}
	case *ast.TypeSwitchStmt:
		init = s.Init
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			bodies = append(bodies, cc.Body)
		}
	}
	return init, tag, bodies, hasDefault, taintFrom
}

// compareArms reports if two arms of an identity-dependent branch
// perform different communication sequences (the statement's own arms
// plus everything that follows it, folded in by the caller).
func (c *checker) compareArms(pos token.Pos, kind string, a, b []string) {
	sa, sb := strings.Join(a, " "), strings.Join(b, " ")
	if sa == sb || !c.once(pos) {
		return
	}
	c.pass.Reportf(pos,
		"communication sequence diverges on this identity-dependent %s: one side runs [%s], the other [%s]; processors fall out of step and the run deadlocks",
		kind, abbrev(sa), abbrev(sb))
}

// once claims the sequence finding at pos, so a statement nested in
// several tainted branches (each folding it into its own comparison)
// is reported only once.
func (c *checker) once(pos token.Pos) bool {
	key := fmt.Sprintf("seq:%d", pos)
	if c.reported[key] {
		return false
	}
	c.reported[key] = true
	return true
}

// abbrev keeps diagnostics readable when a divergent continuation is
// long.
func abbrev(s string) string {
	if s == "" {
		return "nothing"
	}
	const max = 90
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}

// choice renders an untainted two-way branch: equal arms collapse to
// their shared sequence, differing arms become one choice item.
func choice(thenItems []string, thenTerm bool, elseItems []string, elseTerm bool) []string {
	t := serialize(thenItems, thenTerm)
	e := serialize(elseItems, elseTerm)
	if t == e {
		return thenItems
	}
	if len(thenItems) == 0 && len(elseItems) == 0 && thenTerm == elseTerm {
		return nil
	}
	return []string{"if{" + t + "|" + e + "}"}
}

// serialize renders one arm's sequence, marking termination so that
// "does a collective then returns" differs from "does a collective".
func serialize(items []string, term bool) string {
	s := strings.Join(items, " ")
	if term {
		s += " ↩"
	}
	return s
}

// hasEvent reports whether a rendered sequence contains an actual
// communication event, as opposed to only control markers (if{…},
// ↩ and friends). Every event renders as "Name(…)", so a parenthesis
// is the reliable tell.
func hasEvent(items []string) bool {
	for _, it := range items {
		if strings.Contains(it, "(") {
			return true
		}
	}
	return false
}

// uniform reports whether all rendered arms are identical.
func uniform(parts []string) bool {
	for i := 1; i < len(parts); i++ {
		if parts[i] != parts[0] {
			return false
		}
	}
	return true
}

// events collects the communication events of one non-branching
// statement, in source order, without descending into function
// literals.
func (c *checker) events(s ast.Node) []string {
	var out []string
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && c.isComm(call) {
			out = append(out, c.eventOf(call))
		}
		return true
	})
	return out
}

func (c *checker) exprEvents(e ast.Expr) []string { return c.events(e) }

// eventOf renders one communication call as a comparable event:
// operation name plus its structural arguments, each shown as a
// constant value, as "rank-dependent" when identity-tainted, or as
// normalized source text.
func (c *checker) eventOf(call *ast.CallExpr) string {
	f := vmlib.Callee(c.pass.TypesInfo, call)
	if f == nil {
		return "comm()"
	}
	sig, _ := f.Type().(*types.Signature)
	var parts []string
	if sig != nil {
		for i, arg := range call.Args {
			name := paramName(sig, i)
			if !structuralParams[name] {
				continue
			}
			parts = append(parts, name+"="+c.renderArg(arg))
		}
	}
	return f.Name() + "(" + strings.Join(parts, ",") + ")"
}

// renderArg normalizes a structural argument for comparison.
func (c *checker) renderArg(e ast.Expr) string {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return tv.Value.String()
	}
	if c.summary.taints(c.tainted, e) {
		return "rank-dependent"
	}
	// A dimension-list literal ([]int{0, 1}) must be rendered per
	// element: types.ExprString collapses every composite literal to
	// the same "(composite literal)" placeholder, which would make
	// ExchangeAll over []int{0, 1} compare equal to one over
	// []int{1, 2} and hide a real divergence.
	if lit, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
		parts := make([]string, len(lit.Elts))
		for i, el := range lit.Elts {
			parts[i] = c.renderArg(el)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return types.ExprString(e)
}
