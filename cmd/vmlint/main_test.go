package main

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"vmprim/internal/analysis/collorder"
	"vmprim/internal/analysis/framework"
)

// TestFindingsJSON pins the -json wire shape: stable field names, fix
// description carried when present and omitted when not, and an empty
// slice (not null) for a clean run — CI consumers parse this.
func TestFindingsJSON(t *testing.T) {
	in := []framework.Finding{
		{
			Analyzer: "collorder",
			Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
			Message:  "communication sequence diverges on this identity-dependent branch",
		},
		{
			Analyzer: "recyclecheck",
			Pos:      token.Position{Filename: "b.go", Line: 10, Column: 2},
			Message:  "buffer never recycled",
			Fixes: []framework.SuggestedFix{
				{Message: "add p.Recycle(buf)"},
				{Message: "second fix must not leak into the report"},
			},
		},
	}
	got, err := json.Marshal(findingsJSON(in))
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"file":"a.go","line":3,"col":7,"analyzer":"collorder","message":"communication sequence diverges on this identity-dependent branch"},` +
		`{"file":"b.go","line":10,"col":2,"analyzer":"recyclecheck","message":"buffer never recycled","fix":"add p.Recycle(buf)"}]`
	if string(got) != want {
		t.Errorf("wire shape drifted:\n got: %s\nwant: %s", got, want)
	}

	empty, err := json.Marshal(findingsJSON(nil))
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "[]" {
		t.Errorf("clean run must encode as [], got %s", empty)
	}
}

// TestProblemMatcherCoversAnalyzers proves the CI problem matcher's
// regexp captures every registered analyzer's findings — the analyzer
// names are the `code` capture group, so an all-lowercase name is part
// of each analyzer's contract.
func TestProblemMatcherCoversAnalyzers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "vmlint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
				Code   int    `json:"code"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatal(err)
	}
	if len(matcher.ProblemMatcher) != 1 || len(matcher.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("unexpected matcher shape: %s", data)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp does not compile: %v", err)
	}
	for _, a := range analyzers() {
		line := framework.Finding{
			Analyzer: a.Name,
			Pos:      token.Position{Filename: "internal/serve/sse.go", Line: 7, Column: 3},
			Message:  "sample finding",
		}.String()
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("matcher does not capture %s finding: %q", a.Name, line)
			continue
		}
		if m[pat.Code] != a.Name {
			t.Errorf("matcher code group captured %q, want %q in %q", m[pat.Code], a.Name, line)
		}
	}
}

// TestAnalyzerRoster holds the registration list and the one written
// statement of the roster — the first column of README.md's "Static
// analysis" table — together: every registered analyzer has exactly
// one row and every row names a registered analyzer.
func TestAnalyzerRoster(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Static analysis\n")
	if !ok {
		t.Fatal(`README.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]int)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]]++
	}
	registered := make(map[string]int)
	for _, a := range analyzers() {
		registered[a.Name]++
	}
	if !reflect.DeepEqual(rows, registered) {
		t.Errorf("README table rows and registered analyzers differ (name: count):\n  README: %v\n  vmlint: %v", rows, registered)
	}
}

// TestUnknownDirectiveName: a //lint:allow naming an analyzer the
// binary does not register (a typo, or an analyzer since deleted)
// suppresses nothing and must fail the run, not be audited as used.
func TestUnknownDirectiveName(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.21\n")
	write("a.go", "package scratch\n\n//lint:allow nosuchanalyzer a reason, so the directive is well-formed\nvar X = 1\n")
	pkgs, err := framework.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(pkgs, analyzers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("framework.Run must leave names it cannot judge alone, got %v", res.Findings)
	}
	framework.AuditDirectiveNames(res, analyzers())
	if len(res.Findings) != 1 {
		t.Fatalf("want one finding for the unknown name, got %v", res.Findings)
	}
	f := res.Findings[0]
	if f.Analyzer != "directive" || f.Pos.Line != 3 || f.Pos.Column != 1 ||
		!strings.Contains(f.Message, "nosuchanalyzer names no registered analyzer") {
		t.Errorf("unexpected finding: %s", f)
	}
	if len(res.Suppressions) != 1 || res.Suppressions[0].Used {
		t.Errorf("the directive must be listed as not used: %+v", res.Suppressions)
	}
}

// TestDemoDeadlockStaysFlagged: the mismatched-pairing bug that
// `vmprim -demo-deadlock` stages is still caught statically — collorder
// alone reports it, which the used //lint:allow inside runDemoDeadlock
// proves (a directive that suppressed nothing would be a finding).
func TestDemoDeadlockStaysFlagged(t *testing.T) {
	pkgs, err := framework.Load(filepath.Join("..", ".."), "./cmd/vmprim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(pkgs, []*framework.Analyzer{collorder.Analyzer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
	var first, last int
	for _, pkg := range pkgs {
		if pkg.PkgPath != "vmprim/cmd/vmprim" {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "runDemoDeadlock" {
					first, last = pkg.Fset.Position(fn.Pos()).Line, pkg.Fset.Position(fn.End()).Line
				}
			}
		}
	}
	if first == 0 {
		t.Fatal("cmd/vmprim has no runDemoDeadlock")
	}
	for _, s := range res.Suppressions {
		if s.Analyzer == "collorder" && s.Used && filepath.Base(s.File) == "main.go" &&
			first <= s.Line && s.Line <= last {
			return
		}
	}
	t.Errorf("no used collorder suppression inside runDemoDeadlock (lines %d-%d): %+v", first, last, res.Suppressions)
}
