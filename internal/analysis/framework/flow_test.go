package framework

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// countFlow is a toy Flow: the state is the number of inc() calls on
// the path, return and panic end a path, and every structural callback
// is logged so a test can assert which ones the engine made, in order
// and with which states.
type countFlow struct {
	log    []string
	leaves int
}

func (f *countFlow) Leaf(s ast.Stmt, st int, loops []ast.Stmt) (int, bool) {
	f.leaves++
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return st, true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch call.Fun.(*ast.Ident).Name {
			case "inc":
				return st + 1, false
			case "inLoops": // records the loop nesting Leaf is told
				f.log = append(f.log, fmt.Sprintf("leaf in %d loop(s)", len(loops)))
			case "panic":
				return st, true
			}
		}
	}
	return st, false
}

func (f *countFlow) Join(at ast.Stmt, outs []int) int {
	kind := "?"
	switch at.(type) {
	case *ast.IfStmt:
		kind = "if"
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		kind = "switch"
	case *ast.SelectStmt:
		kind = "select"
	case *ast.CaseClause:
		kind = "case"
	}
	f.log = append(f.log, fmt.Sprintf("join %s %v", kind, outs))
	return outs[0]
}

func (f *countFlow) Loop(_ ast.Stmt, entry, back int) int {
	f.log = append(f.log, fmt.Sprintf("loop entry=%d back=%d", entry, back))
	return entry
}

func (f *countFlow) Jump(br *ast.BranchStmt, entry, at int) {
	f.log = append(f.log, fmt.Sprintf("jump %s entry=%d at=%d", br.Tok, entry, at))
}

func (f *countFlow) Copy(st int) int { return st }

func TestWalkPaths(t *testing.T) {
	tests := []struct {
		name  string
		body  string
		end   int
		falls bool
		log   []string
	}{
		{
			name:  "if/else, one arm diverges: no join, the other arm's state survives",
			body:  `if c { inc(); inc(); return } else { inc() }; inc()`,
			end:   2,
			falls: true,
		},
		{
			name:  "if without else joins the arm with the incoming state",
			body:  `inc(); if c { inc() }`,
			end:   2,
			falls: true,
			log:   []string{"join if [2 1]"},
		},
		{
			name:  "if/else, both arms diverge",
			body:  `if c { return } else { panic("x") }; inc()`,
			falls: false,
		},
		{
			name:  "switch with default: exactly the clauses",
			body:  `switch x { case 1: inc(); default: inc(); inc() }`,
			end:   1,
			falls: true,
			log:   []string{"join switch [1 2]"},
		},
		{
			name:  "switch without default: plus the skip-every-case path",
			body:  `switch x { case 1: inc(); case 2: inc(); inc() }`,
			end:   1,
			falls: true,
			log:   []string{"join switch [1 2 0]"},
		},
		{
			name:  "type switch, diverging clause dropped",
			body:  `switch v.(type) { case int: inc(); case string: return; default: }`,
			end:   1,
			falls: true,
			log:   []string{"join switch [1 0]"},
		},
		{
			name:  "select runs exactly one clause: no implicit path",
			body:  `inc(); select { case <-c: inc(); case c <- 1: return }`,
			end:   2,
			falls: true,
		},
		{
			name:  "select with default",
			body:  `select { case <-c: inc(); default: }`,
			end:   1,
			falls: true,
			log:   []string{"join select [1 0]"},
		},
		{
			name:  "empty select blocks for ever",
			body:  `inc(); select {}`,
			falls: false,
		},
		{
			name: "nested loops: jumps resolve to the loop they name",
			body: `
			outer:
				for {
					inc()
					for i := 0; i < n; i++ {
						inc()
						inLoops()
						if a { continue outer }
						if b { break }
						if c { continue }
						if d { break outer }
					}
				}`,
			end:   0,
			falls: true,
			log: []string{
				"leaf in 2 loop(s)",
				"jump continue entry=0 at=2",
				"jump break entry=1 at=2",
				"jump continue entry=1 at=2",
				"jump break entry=0 at=2",
				"loop entry=1 back=2",
				"loop entry=0 back=1",
			},
		},
		{
			name:  "a loop whose body never falls off has no back edge",
			body:  `for { inc(); return }`,
			end:   0,
			falls: true,
		},
		{
			name:  "unlabelled break nested in a switch in a loop ends the clause, not the loop",
			body:  `for range xs { inc(); switch x { case 1: if c { break }; inc() } }`,
			end:   0,
			falls: true,
			log:   []string{"join switch [1 2 1]", "loop entry=0 back=1"},
		},
		{
			name:  "continue inside a switch skips it and restarts the loop",
			body:  `for range xs { switch x { case 1: inc(); continue } }`,
			end:   0,
			falls: true,
			log:   []string{"jump continue entry=0 at=1", "loop entry=0 back=0"},
		},
		{
			// Every loop is taken to be exitable, so the clause also falls
			// off its end in the loop's entry state.
			name:  "labelled break out of a select from an inner loop",
			body:  `sel: select { case <-c: for { inc(); break sel }; default: }`,
			end:   1,
			falls: true,
			log:   []string{"join select [1 0 0]"},
		},
		{
			name:  "fallthrough carries the clause's state into the next clause",
			body:  `switch x { case 1: inc(); fallthrough; case 2: inc(); inc() }`,
			end:   2,
			falls: true,
			log:   []string{"join case [0 1]", "join switch [2 0]"},
		},
		{
			name:  "panic ends the path",
			body:  `inc(); if c { inc(); panic("x") }; inc()`,
			end:   2,
			falls: true,
		},
		{
			name:  "goto: the body is not walked at all",
			body:  `inc(); if c { goto done }; inc(); done: inc()`,
			falls: false,
		},
		{
			name:  "goto inside a function literal is the literal's business",
			body:  `f := func() { goto l; l: }; inc(); f()`,
			end:   1,
			falls: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := "package p\nfunc f() {\n" + tt.body + "\n}"
			file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			flow := &countFlow{}
			end, falls := WalkPaths[int](file.Decls[0].(*ast.FuncDecl).Body, flow, 0)
			if falls != tt.falls || (falls && end != tt.end) {
				t.Errorf("WalkPaths = (%d, %v), want (%d, %v)", end, falls, tt.end, tt.falls)
			}
			if !reflect.DeepEqual(flow.log, tt.log) {
				t.Errorf("callbacks:\n\t%s\nwant:\n\t%s", strings.Join(flow.log, "\n\t"), strings.Join(tt.log, "\n\t"))
			}
			if strings.HasPrefix(tt.name, "goto:") && flow.leaves != 0 {
				t.Errorf("goto body: Leaf called %d times, want 0", flow.leaves)
			}
		})
	}
}

func TestBodies(t *testing.T) {
	src := "package p\nfunc f() { g := func() { _ = func() {} }; g() }"
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Bodies(file.Decls[0].(*ast.FuncDecl))); n != 3 {
		t.Errorf("Bodies found %d bodies, want 3 (f and two nested literals)", n)
	}
}
