package framework_test

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/spanbalance"
)

// walkStub is the smallest hypercube the span calls resolve against:
// vmlib matches BeginSpan/EndSpan by package path and receiver type.
const walkStub = `package hypercube

type Proc struct{}

func (*Proc) BeginSpan(string) {}
func (*Proc) EndSpan()         {}
`

// The findings spanbalance's walk reports; each names the control-flow
// point the walk got to and the depths it compared there.
const (
	ifDiffers     = "span depth differs between the branches of this if (one side is missing a BeginSpan or EndSpan)"
	switchDiffers = "span depth differs between the cases of this switch"
	deferInLoop   = "deferred EndSpan inside a loop runs at function return, not at iteration end"
)

func returnsOpen(n int) string {
	return fmt.Sprintf("return leaves %d span(s) open on this path (EndSpan is not deferred and this exit misses it)", n)
}

func endsOpen(n int) string {
	return fmt.Sprintf("function ends with %d span(s) still open (BeginSpan without matching EndSpan)", n)
}

func loopDrifts(n int) string {
	return fmt.Sprintf("loop body changes open-span depth by %d per iteration", n)
}

func jumpOpen(tok string, n int) string {
	return fmt.Sprintf("%s leaves %d span(s) open relative to the enclosing loop", tok, n)
}

// TestWalkPaths pins the shape of the all-paths walk — where paths
// split, join, loop, jump and end — through spanbalance, its one
// client. In each body inc() stands for a BeginSpan, so the open depth
// counts the inc() calls on a path, and the findings, in position
// order, show which paths the walk took and where it compared them.
func TestWalkPaths(t *testing.T) {
	tests := []struct {
		name string
		body string
		want []string
	}{
		{
			// A joined returning arm would differ from the else arm.
			name: "if/else, one arm diverges: no join, the other arm's state survives",
			body: `if c { inc(); inc(); return } else { inc() }; inc()`,
			want: []string{returnsOpen(2), endsOpen(2)},
		},
		{
			name: "if without else joins the arm with the incoming state",
			body: `inc(); if c { inc() }`,
			want: []string{ifDiffers, endsOpen(2)},
		},
		{
			name: "if/else, both arms diverge",
			body: `if c { return } else { panic("x") }; inc()`,
		},
		{
			name: "switch with default: exactly the clauses",
			body: `switch x { case 1: inc(); default: inc() }`,
			want: []string{endsOpen(1)},
		},
		{
			name: "switch without default: plus the skip-every-case path",
			body: `switch x { case 1: inc(); case 2: inc() }`,
			want: []string{switchDiffers, endsOpen(1)},
		},
		{
			name: "type switch, diverging clause dropped",
			body: `inc(); switch v.(type) { case int: inc(); case string: return; default: inc() }`,
			want: []string{returnsOpen(1), endsOpen(2)},
		},
		{
			name: "select runs exactly one clause: no implicit path",
			body: `inc(); select { case <-ch: inc(); case ch <- 1: return }`,
			want: []string{returnsOpen(1), endsOpen(2)},
		},
		{
			name: "select with default",
			body: `select { case <-ch: inc(); default: }`,
			want: []string{switchDiffers, endsOpen(1)},
		},
		{
			name: "empty select blocks for ever",
			body: `inc(); select {}`,
		},
		{
			// The deferred EndSpan shows the walk knows it is inside
			// loops; each jump is judged against the loop it names.
			name: "nested loops: jumps resolve to the loop they name",
			body: `
			outer:
				for {
					inc()
					for i := 0; i < n; i++ {
						inc()
						defer p.EndSpan()
						if a { continue outer }
						if b { break }
						if c { continue }
						if d { break outer }
					}
				}`,
			want: []string{
				loopDrifts(1),
				loopDrifts(1),
				deferInLoop,
				jumpOpen("continue", 2),
				jumpOpen("break", 1),
				jumpOpen("continue", 1),
				jumpOpen("break", 2),
			},
		},
		{
			name: "a loop whose body never falls off has no back edge",
			body: `for { inc(); return }`,
			want: []string{returnsOpen(1)},
		},
		{
			name: "unlabelled break nested in a switch in a loop ends the clause, not the loop",
			body: `for range xs { inc(); switch x { case 1: if c { break }; inc() } }`,
			want: []string{loopDrifts(1), switchDiffers},
		},
		{
			name: "continue inside a switch skips it and restarts the loop",
			body: `for range xs { switch x { case 1: inc(); continue } }`,
			want: []string{jumpOpen("continue", 1)},
		},
		{
			// Every loop is taken to be exitable, so the clause also falls
			// off its end in the loop's entry state.
			name: "labelled break out of a select from an inner loop",
			body: `sel: select { case <-ch: for { inc(); break sel }; default: }`,
			want: []string{switchDiffers, endsOpen(1)},
		},
		{
			// Entering case 2 by its own match (0) and by fallthrough (1)
			// differ, and so do the states leaving the switch.
			name: "fallthrough carries the clause's state into the next clause",
			body: `switch x { case 1: inc(); fallthrough; case 2: inc(); inc() }`,
			want: []string{switchDiffers, switchDiffers, endsOpen(2)},
		},
		{
			name: "panic ends the path",
			body: `inc(); if c { inc(); panic("x") }; inc()`,
			want: []string{endsOpen(2)},
		},
		{
			name: "goto: the body is not walked at all",
			body: `inc(); if c { goto done }; inc(); done: inc()`,
		},
		{
			name: "goto inside a function literal is the literal's business",
			body: `f := func() { inc(); goto l; l: }; inc(); f()`,
			want: []string{endsOpen(1)},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			body := strings.ReplaceAll(tt.body, "inc()", `p.BeginSpan("s")`)
			src := `package w

import "vmprim/internal/hypercube"

var (
	a, b, c, d bool
	n, x       int
	v          any
	xs         []int
	ch         chan int
)

func f(p *hypercube.Proc) {
` + body + `
}
`
			var got []string
			for _, fd := range walkFindings(t, src) {
				got = append(got, fd.Message)
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(tt.want, "\n\t"))
			}
		})
	}
}

// walkFindings type-checks src against walkStub and runs spanbalance
// over it.
func walkFindings(t *testing.T, src string) []framework.Finding {
	t.Helper()
	dir := t.TempDir()
	fset := token.NewFileSet()
	check := func(path, name, src string, imp types.Importer) *framework.Package {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		pkg, err := framework.Check(fset, path, dir, []string{name}, imp, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatal(pkg.TypeErrors[0])
		}
		return pkg
	}
	hc := check("vmprim/internal/hypercube", "hypercube.go", walkStub, nil)
	pkg := check("w", "w.go", src, importerFunc(func(string) (*types.Package, error) { return hc.Types, nil }))
	res, err := framework.Run([]*framework.Package{pkg}, []*framework.Analyzer{spanbalance.Analyzer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Findings
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
