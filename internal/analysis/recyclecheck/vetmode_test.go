package recyclecheck_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"

	"vmprim/internal/analysis/analysistest"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/recyclecheck"
)

// TestVetModeSinkFacts drives framework.RunUnit the way `go vet
// -vettool=vmlint` does, one cfg file per package, with a real
// fact-exporting analyzer: recyclecheck's sink summary of
// other/sink must reach rcfacts through sink's vetx file. With it,
// HandOff's buffer is discharged by sink.Keep; without it, HandOff
// gets the missing-Recycle finding.
func TestVetModeSinkFacts(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("..", "testdata", "src", "vmprim", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	const (
		hcPath   = "vmprim/internal/hypercube"
		sinkPath = "vmprim/internal/other/sink"
	)
	hcFile := filepath.Join(src, "hypercube", "hypercube.go")
	sinkFile := filepath.Join(src, "other", "sink", "sink.go")
	rcFile := filepath.Join(src, "apps", "rcfacts", "rcfacts.go")

	tmp := t.TempDir()
	analyzers := []*framework.Analyzer{recyclecheck.Analyzer}
	pkgFiles := map[string]string{
		hcPath:   analysistest.CompileExport(t, tmp, hcPath, hcFile),
		sinkPath: analysistest.CompileExport(t, tmp, sinkPath, sinkFile),
	}
	importMap := map[string]string{hcPath: hcPath, sinkPath: sinkPath}

	// Unit 1: the dependency, facts only.
	sinkVetx := filepath.Join(tmp, "sink.vetx")
	res, vetxOnly := analysistest.RunUnit(t, tmp, framework.VetConfig{
		ID: "sink", Compiler: "gc", Dir: filepath.Dir(sinkFile), ImportPath: sinkPath,
		GoFiles: []string{sinkFile}, VetxOnly: true, VetxOutput: sinkVetx,
	}, analyzers)
	if !vetxOnly || len(res.Findings) != 0 {
		t.Fatalf("sink unit: want facts only and no findings, got %v", res.Findings)
	}

	// handOffFindings runs the rcfacts unit, with or without sink's
	// vetx, and returns its findings inside HandOff.
	first, last := funcLines(t, rcFile, "HandOff")
	handOffFindings := func(id string, vetx map[string]string) []framework.Finding {
		t.Helper()
		res, _ := analysistest.RunUnit(t, tmp, framework.VetConfig{
			ID: id, Compiler: "gc", Dir: filepath.Dir(rcFile),
			ImportPath:  "vmprim/internal/apps/rcfacts",
			GoFiles:     []string{rcFile},
			ImportMap:   importMap,
			PackageFile: pkgFiles,
			PackageVetx: vetx,
		}, analyzers)
		var in []framework.Finding
		for _, f := range res.Findings {
			if first <= f.Pos.Line && f.Pos.Line <= last {
				in = append(in, f)
			}
		}
		return in
	}

	// Unit 2: the importer, handed the dependency's vetx.
	if fs := handOffFindings("rcfacts", map[string]string{sinkPath: sinkVetx}); len(fs) != 0 {
		t.Errorf("with sink's vetx, HandOff must be clean: %v", fs)
	}
	// Control: without the vetx the sink is unknown and HandOff leaks.
	fs := handOffFindings("rcfacts-nofacts", nil)
	if len(fs) != 1 || fs[0].Analyzer != "recyclecheck" ||
		fs[0].Message != `buffer "buf" from GetBuf is never recycled, returned, or handed off (pool leak)` {
		t.Errorf("without sink's vetx, want HandOff's missing-Recycle finding, got %v", fs)
	}
}

// funcLines returns the first and last line of the named function.
func funcLines(t *testing.T, file, name string) (first, last int) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
		}
	}
	t.Fatalf("%s declares no %s", file, name)
	return 0, 0
}
