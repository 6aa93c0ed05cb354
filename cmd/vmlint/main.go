// Command vmlint runs the repository's static-analysis suite: the
// analyzers registered in analyzers below, which enforce at compile
// time the invariants the simulator otherwise only checks (or fails
// to check) at run time. The "Static analysis" table in README.md
// says what each one enforces and which runtime failure it subsumes;
// TestAnalyzerRoster holds that table and the registration together.
//
// Usage, standalone:
//
//	vmlint ./...                # from the module root
//	vmlint ./internal/apps
//	vmlint -fix ./...           # apply suggested fixes in place
//	vmlint -diff ./...          # print fixes as diffs, change nothing
//	vmlint -json ./...          # findings as a JSON array on stdout
//	vmlint -suppressions ./...  # audit //lint:allow directives
//
// or as a go vet tool, which integrates with the build cache and
// carries facts between packages through vet's vetx files:
//
//	go vet -vettool=$(command -v vmlint) ./...
//
// Deliberate exceptions are annotated in the source:
//
//	//lint:allow <analyzer> <reason>
//
// on the diagnostic's line, the line above it, or in the doc comment
// of the enclosing declaration. The reason is mandatory, and a
// directive that no longer suppresses anything, or that names no
// registered analyzer, is itself a finding.
//
// Exit status: 0 for no findings, 2 for findings (with -fix, findings
// that remain after the fixes were applied), 1 for operational errors
// (unparseable packages, type errors).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"

	"vmprim/internal/analysis/collorder"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/recyclecheck"
	"vmprim/internal/analysis/simdeterminism"
	"vmprim/internal/analysis/spanbalance"
)

func analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		recyclecheck.Analyzer,
		spanbalance.Analyzer,
		collorder.Analyzer,
		simdeterminism.Analyzer,
	}
}

func main() {
	args := os.Args[1:]

	// go vet -vettool invokes the tool with -V=full and then with
	// *.cfg files; UnitcheckerMain handles (and exits) in that mode.
	if framework.UnitcheckerMain(args, analyzers()) {
		return
	}

	flags := flag.NewFlagSet("vmlint", flag.ExitOnError)
	fix := flags.Bool("fix", false, "apply suggested fixes to the source files")
	diff := flags.Bool("diff", false, "print suggested fixes as unified diffs without applying them")
	jsonOut := flags.Bool("json", false, "print findings as a JSON array on stdout instead of text on stderr")
	suppressions := flags.Bool("suppressions", false, "list //lint:allow directives instead of findings")
	flags.Parse(args)
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		fatal(err)
	}
	res, err := framework.Run(pkgs, analyzers(), nil)
	if err != nil {
		fatal(err)
	}
	framework.AuditDirectiveNames(res, analyzers())

	if *suppressions {
		listSuppressions(res.Suppressions)
		return
	}

	if *jsonOut {
		reportJSON(res.Findings)
		return
	}

	if *fix || *diff {
		fixed, err := framework.ApplyFixes(fsetOf(pkgs), res.Findings)
		if err != nil {
			fatal(err)
		}
		if *diff {
			var paths []string
			for path := range fixed {
				paths = append(paths, path)
			}
			sort.Strings(paths)
			for _, path := range paths {
				old, err := os.ReadFile(path)
				if err != nil {
					fatal(err)
				}
				fmt.Print(framework.Diff(path, old, fixed[path]))
			}
		} else if err := framework.WriteFixedFiles(fixed); err != nil {
			fatal(err)
		} else if len(fixed) > 0 {
			fmt.Fprintf(os.Stderr, "vmlint: fixed %d file(s)\n", len(fixed))
		}
		if *fix {
			// Report only what the fixes did not resolve: findings that
			// carried no fix. Fixed diagnostics are gone from the source.
			var remaining []framework.Finding
			for _, f := range res.Findings {
				if len(f.Fixes) == 0 {
					remaining = append(remaining, f)
				}
			}
			report(remaining)
			return
		}
		report(res.Findings)
		return
	}

	report(res.Findings)
}

// report prints findings and exits 2 if there are any.
func report(findings []framework.Finding) {
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// jsonFinding is the machine-readable diagnostic shape: one object
// per finding, stable field names, for CI annotators and editors.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fix      string `json:"fix,omitempty"`
}

// findingsJSON converts findings to the -json wire shape. The fix
// field carries the first suggested fix's description — the edits
// themselves stay with -fix/-diff, which can apply them.
func findingsJSON(findings []framework.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		jf := jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		}
		if len(f.Fixes) > 0 {
			jf.Fix = f.Fixes[0].Message
		}
		out = append(out, jf)
	}
	return out
}

// reportJSON prints the findings as a JSON array on stdout (always an
// array, [] when clean, so consumers never special-case) and keeps
// the text mode's exit contract.
func reportJSON(findings []framework.Finding) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(findingsJSON(findings)); err != nil {
		fatal(err)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// listSuppressions prints the suppression audit: every live
// //lint:allow directive with its reason and whether it still
// suppresses anything.
func listSuppressions(sup []framework.Suppression) {
	for _, s := range sup {
		status := "used"
		if !s.Used {
			status = "STALE"
		}
		fmt.Printf("%s:%d: %-5s //lint:allow %s — %s\n", s.File, s.Line, status, s.Analyzer, s.Reason)
	}
	if len(sup) == 0 {
		fmt.Println("no //lint:allow directives")
	}
}

// fsetOf returns the FileSet shared by the loaded packages.
func fsetOf(pkgs []*framework.Package) *token.FileSet {
	if len(pkgs) == 0 {
		return token.NewFileSet()
	}
	return pkgs[0].Fset
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmlint:", err)
	os.Exit(1)
}
