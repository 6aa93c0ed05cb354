package framework_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vmprim/internal/analysis/analysistest"
	"vmprim/internal/analysis/framework"
)

// The facts round-trip test drives framework.RunUnit exactly the way `go vet
// -vettool` does — one process-shaped invocation per package, with
// hand-written cfg files and real export data from `go tool compile`
// — and watches a toy fact cross the package (and notional process)
// boundary through the vetx files.

// declFact lists the function names a package declares: a toy summary
// whose only job is to be observable on the far side of the protocol.
type declFact struct{ Funcs []string }

func (*declFact) AFact() {}

func declAnalyzers() []*framework.Analyzer {
	export := &framework.Analyzer{
		Name:      "exportdecls",
		Doc:       "exports each package's declared function names as a fact",
		FactTypes: []framework.Fact{(*declFact)(nil)},
		Run: func(pass *framework.Pass) (any, error) {
			var fns []string
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok {
						fns = append(fns, fn.Name.Name)
					}
				}
			}
			if len(fns) > 0 {
				sort.Strings(fns)
				pass.ExportPackageFact(&declFact{Funcs: fns})
			}
			return nil, nil
		},
	}
	sees := &framework.Analyzer{
		Name:      "seesfacts",
		Doc:       "reports every declFact visible to the pass",
		FactTypes: []framework.Fact{(*declFact)(nil)},
		Run: func(pass *framework.Pass) (any, error) {
			for _, pf := range pass.AllPackageFacts() {
				f := pf.Fact.(*declFact)
				pass.Reportf(pass.Files[0].Name.Pos(), "sees %s:%s",
					pf.Path, strings.Join(f.Funcs, ","))
			}
			return nil, nil
		},
	}
	return []*framework.Analyzer{export, sees}
}

func messages(res *framework.RunResult) []string {
	var out []string
	for _, f := range res.Findings {
		out = append(out, f.Message)
	}
	return out
}

func contains(msgs []string, want string) bool {
	for _, m := range msgs {
		if m == want {
			return true
		}
	}
	return false
}

func TestUnitCheckerFactsRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	write := func(name, src string) {
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package facta\n\nfunc Helper() {}\n\nfunc Other() {}\n")
	write("b.go", "package factb\n\nimport \"facta\"\n\nfunc UseIt() { facta.Helper() }\n")
	write("c.go", "package factc\n\nimport \"factb\"\n\nfunc Chain() { factb.UseIt() }\n")

	analyzers := declAnalyzers()
	aObj := analysistest.CompileExport(t, tmp, "facta", filepath.Join(tmp, "a.go"))
	bObj := analysistest.CompileExport(t, tmp, "factb", filepath.Join(tmp, "b.go"))
	aVetx := filepath.Join(tmp, "facta.vetx")
	bVetx := filepath.Join(tmp, "factb.vetx")

	// Unit 1: the dependency, VetxOnly — the driver wants its facts,
	// not its findings.
	cfgA := framework.VetConfig{
		ID: "facta", Compiler: "gc", Dir: tmp, ImportPath: "facta",
		GoFiles: []string{"a.go"}, VetxOnly: true, VetxOutput: aVetx,
	}
	res, vetxOnly := analysistest.RunUnit(t, tmp, cfgA, analyzers)
	if !vetxOnly {
		t.Error("unit facta: want vetxOnly")
	}
	if len(res.Findings) != 0 {
		t.Errorf("facts-only unit reported findings: %v", res.Findings)
	}
	if fi, err := os.Stat(aVetx); err != nil || fi.Size() == 0 {
		t.Fatalf("vetx output missing or empty: %v", err)
	}

	// Unit 2: the importer, handed the dependency's vetx — its pass
	// sees both its own fact and the imported one.
	cfgB := framework.VetConfig{
		ID: "factb", Compiler: "gc", Dir: tmp, ImportPath: "factb",
		GoFiles:     []string{"b.go"},
		ImportMap:   map[string]string{"facta": "facta"},
		PackageFile: map[string]string{"facta": aObj},
		PackageVetx: map[string]string{"facta": aVetx},
		VetxOutput:  bVetx,
	}
	res, vetxOnly = analysistest.RunUnit(t, tmp, cfgB, analyzers)
	if vetxOnly {
		t.Error("unit factb: want findings, got vetxOnly")
	}
	msgs := messages(res)
	if !contains(msgs, "sees facta:Helper,Other") {
		t.Errorf("dependency fact did not cross the vetx boundary: %v", msgs)
	}
	if !contains(msgs, "sees factb:UseIt") {
		t.Errorf("unit's own fact not visible to its pass: %v", msgs)
	}

	// Control: the same unit without the vetx handoff degrades to
	// facts-free analysis, not an error.
	cfgB0 := framework.VetConfig{
		ID: "factb-nofacts", Compiler: "gc", Dir: tmp, ImportPath: "factb",
		GoFiles:     []string{"b.go"},
		ImportMap:   map[string]string{"facta": "facta"},
		PackageFile: map[string]string{"facta": aObj},
	}
	res, _ = analysistest.RunUnit(t, tmp, cfgB0, analyzers)
	if msgs := messages(res); contains(msgs, "sees facta:Helper,Other") {
		t.Errorf("dependency fact visible without its vetx file: %v", msgs)
	}

	// Unit 3: transitivity. The driver hands each unit only its DIRECT
	// imports' vetx files; factb's whole-store output must therefore
	// re-export facta's facts for its own importers.
	cfgC := framework.VetConfig{
		ID: "factc", Compiler: "gc", Dir: tmp, ImportPath: "factc",
		GoFiles:     []string{"c.go"},
		ImportMap:   map[string]string{"factb": "factb", "facta": "facta"},
		PackageFile: map[string]string{"factb": bObj, "facta": aObj},
		PackageVetx: map[string]string{"factb": bVetx},
	}
	res, _ = analysistest.RunUnit(t, tmp, cfgC, analyzers)
	if msgs := messages(res); !contains(msgs, "sees facta:Helper,Other") {
		t.Errorf("transitive fact lost through the whole-store encoding: %v", msgs)
	}
}

// TestVetUnitAuditsDirectiveNames: the vet driver, handed the whole
// roster, reports a //lint:allow naming no analyzer in it, as the
// standalone driver does, and lists the directive as not used.
func TestVetUnitAuditsDirectiveNames(t *testing.T) {
	tmp := t.TempDir()
	src := "package scratch\n\n//lint:allow nosuchanalyzer a reason, so the directive is well-formed\nvar X = 1\n"
	if err := os.WriteFile(filepath.Join(tmp, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, _ := analysistest.RunUnit(t, tmp, framework.VetConfig{
		ID: "scratch", Compiler: "gc", Dir: tmp, ImportPath: "scratch", GoFiles: []string{"a.go"},
	}, declAnalyzers())
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
