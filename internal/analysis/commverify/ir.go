package commverify

import (
	"go/token"
	"strconv"
)

// The protocol IR. Extraction lowers the Go AST of one SPMD scope to
// this small language; the bounded model checker then instantiates it
// for every processor identity of a d-dimensional cube and executes
// the resulting automata against each other. Everything a protocol
// may branch or index on is an integer expression over the processor
// rank, the cube dimension, enclosing loop variables, and inlined
// call arguments — exactly the vocabulary of the paper's primitives
// (rank bits, gray codes, dimension induction).

// exprKind discriminates the expression nodes.
type exprKind int

const (
	eConst  exprKind = iota // integer literal: val
	eID                     // p.ID() — the processor rank
	eDim                    // p.Dim() — the cube dimension d
	eVar                    // loop variable or inlined parameter: name
	eUnary                  // tok in {-, ^, !}: x
	eBinary                 // tok: x, y
)

// expr is one node of an integer (or boolean, encoded 0/1) expression.
type expr struct {
	Kind exprKind
	Val  int64
	Name string
	Tok  token.Token
	X, Y *expr
}

// poisoned is the sentinel for a variable whose value the extractor
// cannot track (assigned under unmodeled control flow, or from an
// unevaluable right-hand side). Reading it in a structural position
// makes the scope unverifiable.
var poisoned = &expr{}

func constE(v int64) *expr   { return &expr{Kind: eConst, Val: v} }
func varE(name string) *expr { return &expr{Kind: eVar, Name: name} }
func unE(tok token.Token, x *expr) *expr {
	return &expr{Kind: eUnary, Tok: tok, X: x}
}
func binE(tok token.Token, x, y *expr) *expr {
	return &expr{Kind: eBinary, Tok: tok, X: x, Y: y}
}

// exprEq is structural equality, used when merging the variable
// environments of branch arms.
func exprEq(a, b *expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Val != b.Val || a.Name != b.Name || a.Tok != b.Tok {
		return false
	}
	return exprEq(a.X, b.X) && exprEq(a.Y, b.Y)
}

// opKind discriminates the communication operations.
type opKind int

const (
	opSend opKind = iota
	opRecv
	opExchange    // Send then Recv on the same dim/tag
	opExchangeAll // sends on every listed dim, then receives in order
	opColl        // named collective over a subcube mask
)

var opNames = map[opKind]string{
	opSend: "Send", opRecv: "Recv", opExchange: "Exchange",
	opExchangeAll: "ExchangeAll", opColl: "collective",
}

// stmt is one statement of the protocol IR.
type stmt interface{ isStmt() }

// opStmt is one communication operation.
type opStmt struct {
	Kind opKind
	Name string // collective name for opColl (Barrier, Bcast, …)
	Pos  token.Pos
	Dim  *expr   // Send/Recv/Exchange
	Tag  *expr   // every op
	Mask *expr   // opColl
	Root *expr   // opColl; constE(-1) when the collective has no root
	Dims []*expr // opExchangeAll
}

// ifStmt is a two-way branch on an extractable condition.
type ifStmt struct {
	Cond      *expr
	Then, Els []stmt
}

// forStmt is counted iteration: for v := from; v < to; v++ (incl
// flips the bound to <=). The body may reference v.
type forStmt struct {
	V        string
	From, To *expr
	Incl     bool
	Body     []stmt
}

// retStmt terminates the enclosing protocol frame (a function return;
// panic is modeled the same way, as "this processor stops").
type retStmt struct{}

// callStmt inlines another extracted protocol with bound integer
// arguments, preserving call-return semantics (a retStmt inside the
// callee terminates only the callee's frame).
type callStmt struct {
	Callee *protocol
	Args   []*expr // aligned with Callee.Params
}

func (*opStmt) isStmt()   {}
func (*ifStmt) isStmt()   {}
func (*forStmt) isStmt()  {}
func (*retStmt) isStmt()  {}
func (*callStmt) isStmt() {}

// protocol is one extracted SPMD scope: a statement body over the
// IR, with the inlinable integer parameters it is generic over.
// Params[i] is the IR variable name "$<k>" where k is the call-site
// argument index that binds it.
type protocol struct {
	Params []string
	Body   []stmt
	Comm   bool // contains at least one communication op
	P2P    bool // contains at least one point-to-point op
}

// at returns a copy of an imported protocol for inlining at the call
// site pos, which every copied operation is stamped with: a diagnostic
// against an imported summary points at the call, the line the
// importing package controls. The copy is what keeps call sites apart
// — a standalone run hands every importer the exporter's own tree.
// Expressions are never modified once built and stay shared.
func (p *protocol) at(pos token.Pos) *protocol {
	c := *p
	c.Body = stmtsAt(p.Body, pos)
	return &c
}

func stmtsAt(body []stmt, pos token.Pos) []stmt {
	out := make([]stmt, len(body))
	for i, s := range body {
		switch s := s.(type) {
		case *opStmt:
			c := *s
			c.Pos = pos
			out[i] = &c
		case *ifStmt:
			out[i] = &ifStmt{Cond: s.Cond, Then: stmtsAt(s.Then, pos), Els: stmtsAt(s.Els, pos)}
		case *forStmt:
			c := *s
			c.Body = stmtsAt(s.Body, pos)
			out[i] = &c
		case *callStmt:
			out[i] = &callStmt{Callee: s.Callee.at(pos), Args: s.Args}
		default: // *retStmt has nothing to stamp
			out[i] = s
		}
	}
	return out
}

// paramName renders the IR variable bound to call-site argument k.
func paramName(k int) string { return "$" + strconv.Itoa(k) }

// paramIndex inverts paramName; ok is false for non-parameter names.
func paramIndex(name string) (int, bool) {
	if len(name) < 2 || name[0] != '$' {
		return 0, false
	}
	k, err := strconv.Atoi(name[1:])
	return k, err == nil
}

// scan computes the comm/p2p summary of a body, through nested
// inlined calls.
func scan(body []stmt) (comm, p2p bool) {
	for _, s := range body {
		var c, p bool
		switch s := s.(type) {
		case *opStmt:
			c = true
			p = s.Kind != opColl
		case *ifStmt:
			c1, p1 := scan(s.Then)
			c2, p2 := scan(s.Els)
			c, p = c1 || c2, p1 || p2
		case *forStmt:
			c, p = scan(s.Body)
		case *callStmt:
			c, p = s.Callee.Comm, s.Callee.P2P
		}
		comm = comm || c
		p2p = p2p || p
	}
	return comm, p2p
}
