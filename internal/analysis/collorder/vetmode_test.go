package collorder_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"vmprim/internal/analysis/analysistest"
	"vmprim/internal/analysis/collorder"
	"vmprim/internal/analysis/framework"
)

// TestVetModeSummaryFacts drives framework.RunUnit the way `go vet
// -vettool=vmlint` does, one cfg file per package: collorder's
// summary of other/xhelp (Quadrant an identity source, SumAll a
// collective) must reach xuse and spmdx through xhelp's vetx file.
// With it, each unit reports what the standalone run reports (the
// fixtures' // want lines); without it, nothing.
func TestVetModeSummaryFacts(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("..", "testdata", "src", "vmprim"))
	if err != nil {
		t.Fatal(err)
	}
	const (
		hcPath    = "vmprim/internal/hypercube"
		collPath  = "vmprim/internal/collective"
		xhelpPath = "vmprim/internal/other/xhelp"
	)
	tmp := t.TempDir()
	analyzers := []*framework.Analyzer{collorder.Analyzer}
	pkgFiles := make(map[string]string)
	importMap := make(map[string]string)
	for _, path := range []string{hcPath, collPath, xhelpPath} {
		pkgFiles[path] = analysistest.CompileExport(t, tmp, path, fileOf(src, path))
		importMap[path] = path
	}
	unit := func(cfg framework.VetConfig) *framework.RunResult {
		t.Helper()
		res, vetxOnly := analysistest.RunUnit(t, tmp, cfg, analyzers)
		if vetxOnly != cfg.VetxOnly {
			t.Fatalf("unit %s: vetxOnly = %v, want %v", cfg.ID, vetxOnly, cfg.VetxOnly)
		}
		return res
	}

	// Unit 1: the dependency, facts only.
	xhelpVetx := filepath.Join(tmp, "xhelp.vetx")
	if res := unit(framework.VetConfig{
		ID: "xhelp", Compiler: "gc", Dir: filepath.Dir(fileOf(src, xhelpPath)), ImportPath: xhelpPath,
		GoFiles: []string{fileOf(src, xhelpPath)}, ImportMap: importMap, PackageFile: pkgFiles,
		VetxOnly: true, VetxOutput: xhelpVetx,
	}); len(res.Findings) != 0 {
		t.Fatalf("xhelp unit: want facts only and no findings, got %v", res.Findings)
	}

	// Units 2 and 3: each importer, with and without xhelp's vetx.
	for _, path := range []string{"vmprim/internal/apps/xuse", "vmprim/internal/apps/spmdx"} {
		file := fileOf(src, path)
		run := func(id string, vetx map[string]string) []string {
			res := unit(framework.VetConfig{
				ID: id, Compiler: "gc", Dir: filepath.Dir(file), ImportPath: path,
				GoFiles: []string{file}, ImportMap: importMap, PackageFile: pkgFiles,
				PackageVetx: vetx,
			})
			return render(res.Findings)
		}
		res, _ := analysistest.Result(t, filepath.Join("..", "testdata"), collorder.Analyzer, path, true)
		standalone := render(res.Findings)
		if len(standalone) == 0 {
			t.Fatalf("%s: the standalone run reports nothing to compare with", path)
		}
		if got := run(filepath.Base(path), map[string]string{xhelpPath: xhelpVetx}); !reflect.DeepEqual(got, standalone) {
			t.Errorf("%s with xhelp's vetx:\n\tgot  %q\n\twant %q (the standalone findings)", path, got, standalone)
		}
		if got := run(filepath.Base(path)+"-nofacts", nil); len(got) != 0 {
			t.Errorf("%s without xhelp's vetx: want no findings, got %q", path, got)
		}
	}
}

// fileOf is the one source file of a fixture package.
func fileOf(src, pkgpath string) string {
	rel, _ := filepath.Rel("vmprim", pkgpath)
	return filepath.Join(src, rel, filepath.Base(pkgpath)+".go")
}

// render positions findings by line and column only: the two drivers
// name the same file by different paths.
func render(findings []framework.Finding) []string {
	var out []string
	for _, f := range findings {
		out = append(out, fmt.Sprintf("%d:%d: %s: %s", f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message))
	}
	return out
}
