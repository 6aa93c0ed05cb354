package framework

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one diagnostic after suppression, positioned and
// attributed to its analyzer, carrying any machine-applicable fixes.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []SuggestedFix
}

// String renders the finding in the conventional file:line:col form
// consumed by editors and CI annotators.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// A Suppression is one live //lint:allow directive, for audit
// listings (vmlint -suppressions).
type Suppression struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Reason   string
	// Used reports whether the directive suppressed at least one
	// diagnostic in this run. An unused directive is also reported as
	// a "directive" finding: it documents an exception that no longer
	// exists, which is exactly the kind of drift the audit catches.
	Used bool
}

// A RunResult is the outcome of applying the analyzer suite.
type RunResult struct {
	Findings     []Finding
	Suppressions []Suppression
}

// Run applies the analyzers to every package, honors //lint:allow
// directives, and returns the surviving findings sorted by position
// together with the suppression audit. Malformed directives (missing
// analyzer or reason) and stale directives (suppressing nothing) are
// reported as findings of the pseudo-analyzer "directive" so they fail
// the lint gate.
//
// Packages are processed in dependency order so that package facts
// flow from imports to importers; pkgs marked FactsOnly contribute
// facts but no findings.
//
// Packages with type errors are not analyzed; Run returns an error
// naming them, since findings over broken types would be unreliable.
//
// facts is the run's fact store, nil for a fresh one. The vet driver
// passes one seeded from its dependencies' vetx files; it is left
// holding every fact exported during the run.
func Run(pkgs []*Package, analyzers []*Analyzer, facts *FactStore) (*RunResult, error) {
	if facts == nil {
		facts = NewFactStore()
	}
	registerFactTypes(analyzers)
	inRun := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		inRun[a.Name] = true
	}

	res := &RunResult{}
	for _, pkg := range packageOrder(pkgs) {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("package %s has type errors (first: %v)", pkg.PkgPath, pkg.TypeErrors[0])
		}
		var dirs []*directive
		for _, f := range pkg.Files {
			ds, bad := parseDirectives(pkg.Fset, f)
			dirs = append(dirs, ds...)
			if pkg.FactsOnly {
				continue
			}
			for _, b := range bad {
				res.Findings = append(res.Findings, Finding{
					Analyzer: "directive",
					Pos:      pkg.Fset.Position(b.pos),
					Message:  b.msg,
				})
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				facts:     facts,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				for _, dir := range dirs {
					if dir.suppresses(a.Name, pos, d.Pos) {
						dir.used = true
						return
					}
				}
				if !pkg.FactsOnly {
					res.Findings = append(res.Findings, Finding{
						Analyzer: a.Name, Pos: pos, Message: d.Message, Fixes: d.SuggestedFixes,
					})
				}
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
		// Suppression audit: a directive that suppressed nothing is
		// dead weight (the exception it documented is gone) and is
		// itself reported, with a fix that deletes it. Directives
		// naming analyzers outside this run's set cannot be judged and
		// are skipped, as are facts-only packages.
		for _, dir := range dirs {
			auditable := dir.analyzer == "all" || inRun[dir.analyzer]
			if !pkg.FactsOnly {
				res.Suppressions = append(res.Suppressions, Suppression{
					File: dir.file, Line: dir.line, Col: pkg.Fset.Position(dir.pos).Column,
					Analyzer: dir.analyzer, Reason: dir.reason,
					Used: dir.used || !auditable,
				})
			}
			if pkg.FactsOnly || dir.used || !auditable {
				continue
			}
			res.Findings = append(res.Findings, Finding{
				Analyzer: "directive",
				Pos:      pkg.Fset.Position(dir.pos),
				Message: fmt.Sprintf("//lint:allow %s directive suppresses no diagnostic; remove it",
					dir.analyzer),
				Fixes: []SuggestedFix{{
					Message:   "delete the stale directive",
					TextEdits: []TextEdit{{Pos: dir.pos, End: dir.end, NewText: nil}},
				}},
			})
		}
	}
	sortFindings(res.Findings)
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res, nil
}

// AuditDirectiveNames reports, and lists as not used, every
// //lint:allow in res naming an analyzer outside roster. Run cannot
// judge such a name (a one-analyzer run sees the others'); a driver
// holding the whole roster can, and applies this after Run.
func AuditDirectiveNames(res *RunResult, roster []*Analyzer) {
	known := map[string]bool{"all": true}
	for _, a := range roster {
		known[a.Name] = true
	}
	for i, s := range res.Suppressions {
		if !known[s.Analyzer] {
			res.Suppressions[i].Used = false
			res.Findings = append(res.Findings, Finding{
				Analyzer: "directive",
				Pos:      token.Position{Filename: s.File, Line: s.Line, Column: s.Col},
				Message:  fmt.Sprintf("//lint:allow %s names no registered analyzer", s.Analyzer),
			})
		}
	}
	sortFindings(res.Findings)
}

// sortFindings orders findings by position, then analyzer name.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// packageOrder sorts pkgs so that every package follows the packages
// it imports (restricted to the given set), which is what lets facts
// exported while analyzing a dependency be imported while analyzing
// its dependents in the same run. Ties keep the incoming (sorted)
// order, so output remains deterministic.
func packageOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	var out []*Package
	state := make(map[*Package]int) // 1 = visiting, 2 = done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return // done, or a cycle (impossible in valid Go) — either way stop
		}
		state[p] = 1
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if dep, ok := byPath[imp.Path()]; ok {
					visit(dep)
				}
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
