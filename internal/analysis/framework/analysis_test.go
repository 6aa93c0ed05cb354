package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

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
