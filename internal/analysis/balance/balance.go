// Package balance proves that a paired acquire/release call balances on
// every control-flow path of a function body. spanbalance instantiates
// it over BeginSpan/EndSpan, supplying only how it recognises its calls
// and how it words the findings.
//
// The proof is a framework.WalkPaths flow over two counters: the
// number of acquires not yet undone by an inline release (depth) and
// the number of deferred releases registered so far (credits). The
// rules:
//
//   - at every return, and at the end of a body that can fall off,
//     depth must equal credits — the deferred releases undo exactly
//     what is still held;
//   - all arms of an if, switch or select that can fall out of it must
//     agree on both counters, since the following code cannot know
//     which arm ran;
//   - a loop body must be neutral, and a release deferred inside a loop
//     is an error of its own (it runs at function return, not at
//     iteration end — the classic bug);
//   - break and continue must occur at the entry depth of the loop
//     they target, because they jump to code that assumes it;
//   - panic ends the path: the run aborts and deferred releases fire.
//
// When a body acquires exactly once, at its top level, and releases
// nowhere, the unbalanced-exit diagnostics carry a suggested fix that
// inserts the idiomatic deferred release right after the acquire.
package balance

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// An Event is one kind of finding; Pair.Message words it.
type Event int

const (
	Unmatched   Event = iota // release with nothing held
	DeferInLoop              // release deferred inside a loop
	ReturnOpen               // return with depth-credits == n, n != 0
	EndOpen                  // body falls off its end likewise
	IfSkew                   // arms of an if disagree
	CaseSkew                 // clauses of a switch or select disagree
	LoopDrift                // loop body changes depth by n per iteration
	JumpSkew                 // break/continue at depth n above its loop's entry; the keyword is prefixed
)

// A Pair is one acquire/release discipline.
type Pair struct {
	// Op classifies call as an acquire or release of the tracked
	// resource.
	Op func(call *ast.CallExpr) (acquire, ok bool)
	// Release is the release method's name, for the suggested fix.
	Release string
	// Message words one finding.
	Message func(ev Event, n int) string
}

// Check walks body and reports every path on which pair does not
// balance.
func Check(pass *framework.Pass, body *ast.BlockStmt, pair Pair) {
	c := &checker{pass: pass, pair: pair, fix: deferFix(pass, body, pair)}
	if end, falls := framework.WalkPaths[state](body, c, state{}); falls {
		c.exit(body.Rbrace, EndOpen, end)
	}
}

type state struct {
	depth   int // acquires not yet undone by an inline release
	credits int // deferred releases registered so far
}

// checker is the framework.Flow of one Check.
type checker struct {
	pass *framework.Pass
	pair Pair
	fix  *framework.SuggestedFix // attached to unbalanced-exit findings
}

func (c *checker) report(pos token.Pos, prefix string, ev Event, n int) {
	d := framework.Diagnostic{Pos: pos, Message: prefix + c.pair.Message(ev, n)}
	if c.fix != nil && (ev == ReturnOpen || ev == EndOpen) {
		d.SuggestedFixes = []framework.SuggestedFix{*c.fix}
	}
	c.pass.Report(d)
}

func (c *checker) exit(pos token.Pos, ev Event, st state) {
	if st.depth != st.credits {
		c.report(pos, "", ev, st.depth-st.credits)
	}
}

func (c *checker) Leaf(s ast.Stmt, st state, loops []ast.Stmt) (state, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if acquire, ok := c.pair.Op(call); ok {
				switch {
				case acquire:
					st.depth++
				case st.depth <= 0:
					c.report(call.Pos(), "", Unmatched, 0)
				default:
					st.depth--
				}
				return st, false
			}
			if vmlib.IsBuiltinCall(c.pass.TypesInfo, call, "panic") {
				return st, true
			}
		}

	case *ast.DeferStmt:
		// defer x.Release(), or defer func() { …x.Release()… }() whose
		// top-level releases count.
		calls := []*ast.CallExpr{s.Call}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			calls = nil
			for _, inner := range lit.Body.List {
				if es, ok := inner.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						calls = append(calls, call)
					}
				}
			}
		}
		for _, call := range calls {
			if acquire, ok := c.pair.Op(call); !ok || acquire {
				continue
			}
			if len(loops) > 0 {
				c.report(s.Pos(), "", DeferInLoop, 0)
			} else {
				st.credits++
			}
		}
		return st, false

	case *ast.ReturnStmt:
		c.exit(s.Pos(), ReturnOpen, st)
		return st, true
	}
	return st, false
}

func (c *checker) Join(at ast.Stmt, outs []state) state {
	for _, o := range outs[1:] {
		if o != outs[0] {
			ev := CaseSkew
			if _, ok := at.(*ast.IfStmt); ok {
				ev = IfSkew
			}
			c.report(at.Pos(), "", ev, 0)
			break
		}
	}
	return outs[0]
}

func (c *checker) Loop(loop ast.Stmt, entry, back state) state {
	if back.depth != entry.depth {
		c.report(loop.Pos(), "", LoopDrift, back.depth-entry.depth)
	}
	return entry
}

func (c *checker) Jump(br *ast.BranchStmt, entry, at state) {
	if at.depth != entry.depth {
		c.report(br.Pos(), br.Tok.String()+" ", JumpSkew, at.depth-entry.depth)
	}
}

func (c *checker) Copy(st state) state { return st }

// deferFix builds the "insert defer x.Release() after the acquire" fix
// when the body has the simple forgotten-defer shape: exactly one
// acquire, as a top-level statement, and no release anywhere (inline
// or deferred). Anything more structured has no single right repair,
// and the fix is nil.
func deferFix(pass *framework.Pass, body *ast.BlockStmt, pair Pair) *framework.SuggestedFix {
	ops := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := pair.Op(call); ok {
				ops++
			}
		}
		return true
	})
	if ops != 1 {
		return nil
	}
	for _, s := range body.List {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if acquire, ok := pair.Op(call); !ok || !acquire {
			continue
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		// gofmt indents with tabs; a fixed file must stay gofmt-clean.
		indent := strings.Repeat("\t", pass.Fset.Position(es.Pos()).Column-1)
		text := "\n" + indent + "defer " + types.ExprString(sel.X) + "." + pair.Release + "()"
		return &framework.SuggestedFix{
			Message:   "defer the matching " + pair.Release,
			TextEdits: []framework.TextEdit{{Pos: es.End(), End: token.NoPos, NewText: []byte(text)}},
		}
	}
	return nil // the one call is a release, or nested in inner control flow
}
