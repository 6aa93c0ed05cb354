package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one loaded, parsed and type-checked package, ready for
// analysis.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string

	// Fset positions the package's syntax (shared across a Load call).
	Fset *token.FileSet

	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File

	// Types is the type-checked package object.
	Types *types.Package

	// Info holds the type-checker's results for Files.
	Info *types.Info

	// TypeErrors collects type-check problems. A package with type
	// errors is not analyzed; the driver reports the errors instead,
	// because analyzers assume complete type information.
	TypeErrors []error

	// FactsOnly marks a package loaded only because a requested
	// package depends on it: it is analyzed so its facts are available
	// to importers, but its diagnostics are discarded.
	FactsOnly bool
}

// Check parses files (relative to dir) and type-checks them as package
// path against imp, at goVersion if not empty; every driver loads
// through it. A parse error is returned, type errors are collected.
func Check(fset *token.FileSet, path, dir string, files []string, imp types.Importer, goVersion string) (*Package, error) {
	p := &Package{PkgPath: path, Fset: fset, Info: &types.Info{ // the maps the analyzers read
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = conf.Check(path, fset, p.Files, p.Info)
	return p, nil
}

// ExportImporter returns an importer that reads the compiler's export
// data from the file lookup names for an import path ("" for none).
func ExportImporter(fset *token.FileSet, lookup func(path string) string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := lookup(path)
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// A ListedPackage is the subset of `go list -json` output the loaders
// use.
type ListedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// GoList runs `go list -e -export -deps` on patterns from dir (the
// current directory if empty). A package go list could not load
// carries its Error; GoList fails only if the go command does.
func GoList(dir string, patterns ...string) ([]ListedPackage, error) {
	args := append([]string{
		"list", "-e", "-export",
		"-deps", "-json=ImportPath,Export,Dir,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var listed []ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp ListedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		listed = append(listed, lp)
	}
}

// Load lists patterns with the go command (from dir), parses every
// matched non-dependency package, and type-checks it against the
// compiler's export data for its dependencies. The returned packages
// are sorted by import path and share one FileSet.
//
// In-module dependencies of the matched packages that the patterns
// themselves do not match are loaded too, marked FactsOnly: when
// vmlint is pointed at a subtree (`vmlint ./internal/apps`), the
// packages beneath it still see the facts of the packages they
// import, exactly as they would under `vmlint ./...`.
//
// Loading needs no network and no GOPATH contents beyond the module
// itself: `go list -export` compiles dependencies into the build cache
// and hands back their export-data files, which go/importer consumes
// directly.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []ListedPackage
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %v: %s", patterns, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.Standard {
			targets = append(targets, lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := ExportImporter(fset, func(path string) string { return exports[path] })
	var pkgs []*Package
	for _, t := range targets {
		p, err := Check(fset, t.ImportPath, t.Dir, t.GoFiles, imp, "")
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", t.ImportPath, err)
		}
		p.FactsOnly = t.DepOnly
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
