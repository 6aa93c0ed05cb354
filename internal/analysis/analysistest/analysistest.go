// Package analysistest runs a vmlint analyzer over fixture packages
// and compares its diagnostics against expectations written in the
// fixture sources, mirroring golang.org/x/tools/go/analysis/analysistest
// closely enough that a future migration is mechanical.
//
// Fixtures live in a GOPATH-shaped tree:
//
//	testdata/src/<import/path>/*.go
//
// so a stub package can be declared under the exact import path the
// analyzers match against (vmprim/internal/hypercube and friends) —
// name-and-path matching in vmlib is what makes the same analyzer
// logic work on the real tree and on the stubs.
//
// An expected diagnostic is a trailing comment on the offending line:
//
//	buf := p.GetBuf(8) // want `never recycled`
//
// with one or more quoted or backquoted regular expressions matched
// against the diagnostic message. Every diagnostic must be wanted and
// every want must be matched; anything else fails the test.
//
// Fixture imports of other fixture packages are type-checked from
// source, recursively; imports with no fixture directory (time,
// math/rand) fall back to the compiler's export data via `go list
// -export`, so fixtures may use the standard library freely without
// the test shipping stubs for it. Imported fixture packages are also
// analyzed, facts-only, so cross-package facts flow as they do under
// the real drivers.
//
// RunWithSuggestedFixes additionally applies the findings' suggested
// fixes and compares each changed file against its <file>.golden
// sibling, then re-analyzes the fixed tree to prove the fixes are
// complete and idempotent.
//
// CompileExport and RunUnit drive the vet driver instead, one unit per
// package as `go vet -vettool` does, so a test can watch facts cross
// the vetx files.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vmprim/internal/analysis/framework"
)

// Run applies a to each fixture package (by import path, rooted at
// testdata/src) and reports every mismatch between the diagnostics
// and the fixtures' // want expectations as a test error.
//
// Fixture packages the target imports are analyzed too, facts-only —
// their diagnostics are discarded but their package facts flow to the
// target, mirroring what `vmlint ./...` and the vet driver do. A
// cross-package expectation (a taint source in one fixture package, a
// want comment in its importer) therefore tests the fact path.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, path := range pkgpaths {
		res, l := analyze(t, testdata, a, path, true)
		checkExpectations(t, l.fset, l.pkgs[path], res.Findings)
	}
}

// Result runs a over one fixture package and returns the complete
// run result — findings plus the suppression audit — together with
// the FileSet positioning them, ignoring want comments. withFacts
// controls whether the target's fixture dependencies are analyzed for
// their facts first; a test asserts cross-package detection by
// comparing the two modes.
func Result(t *testing.T, testdata string, a *framework.Analyzer, path string, withFacts bool) (*framework.RunResult, *token.FileSet) {
	t.Helper()
	res, l := analyze(t, testdata, a, path, withFacts)
	return res, l.fset
}

// RunWithSuggestedFixes is Run plus fix validation: the fixes carried
// by the findings are applied, each changed file must match its
// checked-in <file>.golden sibling, and re-analyzing the fixed tree
// must produce no further fixable findings (fix application is
// complete and idempotent).
func RunWithSuggestedFixes(t *testing.T, testdata string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	Run(t, testdata, a, pkgpaths...)
	for _, path := range pkgpaths {
		res, l := analyze(t, testdata, a, path, true)
		fixed, err := framework.ApplyFixes(l.fset, res.Findings)
		if err != nil {
			t.Fatalf("applying fixes for %s: %v", path, err)
		}
		for file, got := range fixed {
			want, err := os.ReadFile(file + ".golden")
			if err != nil {
				t.Errorf("%s: fixes were applied but no .golden file exists: %v", file, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: fixed output differs from %s.golden:\n%s",
					file, filepath.Base(file), framework.Diff(file, want, got))
			}
		}
		if len(fixed) > 0 {
			checkIdempotent(t, testdata, a, path, fixed)
		}
	}
}

// checkIdempotent re-analyzes the fixture tree with the fixed files
// swapped in and fails if any finding still carries a fix: applying
// fixes twice must be the same as applying them once.
func checkIdempotent(t *testing.T, testdata string, a *framework.Analyzer, path string, fixed map[string][]byte) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	tmp := t.TempDir()
	tmpSrc := filepath.Join(tmp, "src")
	if err := copyTree(src, tmpSrc); err != nil {
		t.Fatalf("copying fixtures: %v", err)
	}
	for file, content := range fixed {
		rel, err := filepath.Rel(src, file)
		if err != nil {
			t.Fatalf("fixed file %s outside testdata: %v", file, err)
		}
		if err := os.WriteFile(filepath.Join(tmpSrc, rel), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := analyze(t, tmp, a, path, true)
	for _, f := range res.Findings {
		if len(f.Fixes) > 0 {
			t.Errorf("after applying fixes, %s still offers a fix (fix application is not idempotent)", f)
		}
	}
}

// copyTree copies a fixture directory recursively.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// analyze loads path (plus, optionally, its fixture dependencies as
// facts-only packages) into one runner invocation and returns the
// result with the loader.
func analyze(t *testing.T, testdata string, a *framework.Analyzer, path string, withFacts bool) (*framework.RunResult, *loader) {
	t.Helper()
	l := newLoader(testdata)
	target, err := l.load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	pkgs := []*framework.Package{target}
	if withFacts {
		// The loader cache now holds every fixture package the target
		// (transitively) imports; analyze them facts-only, exactly as
		// the standalone driver treats in-module dependencies.
		var deps []string
		for p := range l.pkgs {
			if p != path {
				deps = append(deps, p)
			}
		}
		sort.Strings(deps)
		for _, p := range deps {
			dep := l.pkgs[p]
			dep.FactsOnly = true
			pkgs = append(pkgs, dep)
		}
	}
	res, err := framework.Run(pkgs, []*framework.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}
	return res, l
}

// expectation is one parsed // want regexp.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// checkExpectations matches findings against the fixture's // want
// comments: same file, same line, message matching the pattern.
func checkExpectations(t *testing.T, fset *token.FileSet, pkg *framework.Package, findings []framework.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, fset, c)...)
			}
		}
	}
	for _, fd := range findings {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == fd.Pos.Filename && w.line == fd.Pos.Line && w.re.MatchString(fd.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", fd)
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// parseWants extracts the expectations from one comment, which holds
// zero or more quoted or backquoted patterns after the marker:
//
//	// want `regexp` "another"
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	const marker = "// want "
	if !strings.HasPrefix(c.Text, marker) {
		return nil
	}
	pos := fset.Position(c.Pos())
	rest := strings.TrimPrefix(c.Text, marker)
	var wants []*expectation
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s:%d: malformed want pattern %q", pos.Filename, pos.Line, rest)
		}
		lit, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s:%d: malformed want pattern %q: %v", pos.Filename, pos.Line, q, err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
		}
		wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
		rest = rest[len(q):]
	}
	return wants
}

// loader type-checks fixture packages from source, resolving fixture
// imports recursively and everything else from export data.
type loader struct {
	root    string // testdata/src
	fset    *token.FileSet
	pkgs    map[string]*framework.Package
	std     types.Importer
	exports map[string]string // import path -> export data file ("" if listed and missing)
}

func newLoader(testdata string) *loader {
	l := &loader{
		root:    filepath.Join(testdata, "src"),
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*framework.Package),
		exports: make(map[string]string),
	}
	l.std = framework.ExportImporter(l.fset, l.lookupExport)
	return l
}

// Import implements types.Importer over the two source kinds.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, filepath.FromSlash(path)); dirExists(dir) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("fixture %s has type errors (first: %v)", path, p.TypeErrors[0])
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one fixture package.
func (l *loader) load(path string) (*framework.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p, err := framework.Check(l.fset, path, dir, files, l, "")
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// lookupExport resolves export data for non-fixture imports, listing
// each root package (with its dependency closure) at most once.
func (l *loader) lookupExport(path string) string {
	if _, ok := l.exports[path]; !ok {
		l.exports[path] = ""
		listed, _ := framework.GoList("", path)
		for _, lp := range listed {
			if lp.Export != "" {
				l.exports[lp.ImportPath] = lp.Export
			}
		}
	}
	return l.exports[path]
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// CompileExport compiles package pkgpath from files into export data
// at dir/<pkgpath>.a, importing what was compiled into dir before it,
// and returns the file: a vet unit's PackageFile entry.
func CompileExport(t *testing.T, dir, pkgpath string, files ...string) string {
	t.Helper()
	out := filepath.Join(dir, filepath.FromSlash(pkgpath)+".a")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"tool", "compile", "-p", pkgpath, "-I", dir, "-o", out}, files...)
	if b, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go tool compile %s: %v\n%s", pkgpath, err, b)
	}
	return out
}

// RunUnit writes cfg to dir/<cfg.ID>.cfg and runs framework.RunUnit on
// it, as `go vet -vettool` runs one package, failing t on an error.
func RunUnit(t *testing.T, dir string, cfg framework.VetConfig, analyzers []*framework.Analyzer) (*framework.RunResult, bool) {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, cfg.ID+".cfg")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, vetxOnly, err := framework.RunUnit(file, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return res, vetxOnly
}
