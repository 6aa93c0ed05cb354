// Package commverify proves deadlock-freedom of SPMD communication
// protocols by bounded model checking.
//
// collorder checks that every processor executes the same *collective*
// sequence; nothing there speaks about point-to-point Send/Recv
// pairing, the bug class the runtime watchdog only reports after the
// deadlock has happened. commverify is the static twin of that
// post-mortem: it lowers each SPMD scope to a small protocol IR —
// communication ops whose dimension/tag/mask arguments are integer
// expressions over p.ID(), p.Dim(), loop variables and inlined call
// arguments — then instantiates all 2^d processor identities for
// every cube dimension d ≤ 4 and executes the per-proc automata
// against each other under the runtime's own semantics. Unreceived
// sends, tag mismatches, statically certain ExchangeAll panics, and
// cyclically blocked states become diagnostics carrying a minimal
// counterexample schedule (which procs, which ops, which VT step).
//
// The checker is deliberately one-sided. Scopes it can fully
// concretize are genuinely proven (for the checked cube sizes):
// point-to-point queues on a hypercube are single-producer, so the
// protocol system is confluent and one canonical schedule decides
// whether completion is reachable. Scopes it cannot concretize —
// dynamic tags from NextTag, data-dependent branches, unmodeled
// control flow — are skipped silently rather than guessed at. A
// finding is therefore always a real property of the extracted
// protocol, never a "could not verify" shrug.
//
// Exported protocol summaries travel between packages as package
// facts, so a wrapper in one package and its caller in another are
// checked as one protocol (and functions whose protocol cannot be
// summarized are recorded as opaque, keeping callers honest).
package commverify

import (
	"encoding/gob"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"vmprim/internal/analysis/collectives"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the commverify entry point.
var Analyzer = &framework.Analyzer{
	Name:      "commverify",
	Doc:       "bounded model-check SPMD point-to-point protocols for deadlocks, unmatched sends and tag mismatches",
	Requires:  []*framework.Analyzer{collectives.Analyzer},
	FactTypes: []framework.Fact{(*Fact)(nil)},
	Run:       run,
}

// The framework registers Fact itself; gob also has to know the
// concrete types behind the stmt interface inside it.
func init() {
	gob.Register(&opStmt{})
	gob.Register(&ifStmt{})
	gob.Register(&forStmt{})
	gob.Register(&retStmt{})
	gob.Register(&callStmt{})
}

// Fact is one package's exported protocol summary: the protocol IR of
// every exported communicating function, plus the names of exported
// functions that communicate in ways the IR cannot express. The fact
// is exported even when both lists are empty — its presence tells
// importers "this package was analyzed, anything not listed is
// communication-free", which is what lets cross-package calls to
// plain helpers stay verifiable.
//
// A summary is closed: callees hang inline off their callStmt
// (recursive protocols are opaque long before this point), so it
// never references another fact. Its positions are the exporter's and
// mean nothing to an importer, which takes its own copy with
// protocol.at.
type Fact struct {
	Protocols map[string]*protocol
	Opaque    []string
}

// AFact marks Fact as a framework fact.
func (*Fact) AFact() {}

func run(pass *framework.Pass) (any, error) {
	path := pass.Pkg.Path()
	factScope := inModule(path) && !vmlib.InScope(path, exemptPaths...)
	reportScope := vmlib.InScope(path, vmlib.CorePath, vmlib.AppsPath, vmlib.BenchPath) ||
		vmlib.InTopLevelScope(path)
	if !factScope && !reportScope {
		return nil, nil
	}
	summary := pass.ResultOf[collectives.Analyzer].(*collectives.Result)
	x := newExtractor(pass, summary)

	if factScope {
		x.exportFact()
	}
	if !reportScope {
		return nil, nil
	}

	reported := make(map[token.Pos]bool)
	report := func(v *verdict) {
		if v != nil && !reported[v.pos] {
			reported[v.pos] = true
			pass.Reportf(v.pos, "%s", v.msg)
		}
	}

	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// The declaration itself (functions go through the memoized
			// summary so local inlining is shared; methods are lowered
			// directly).
			var proto *protocol
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok && fn.Recv == nil {
				if e := x.protocolOf(obj); e.proto != nil {
					proto = e.proto
				}
			} else if p, err := x.extractFunc(fn.Type, fn.Body); err == nil {
				proto = p
			}
			if proto != nil && proto.Comm {
				report(boundedCheck(proto))
			}
			// Every function literal underneath is its own SPMD scope.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				if p, err := x.extractFunc(lit.Type, lit.Body); err == nil && p.Comm {
					report(boundedCheck(p))
				}
				return true
			})
		}
	}
	return nil, nil
}

// exportFact summarizes the package's exported functions for
// importers.
func (x *extractor) exportFact() {
	fact := &Fact{Protocols: make(map[string]*protocol)}
	for f, decl := range x.bodies {
		if !decl.Name.IsExported() {
			continue
		}
		e := x.protocolOf(f)
		switch {
		case e.opaque:
			fact.Opaque = append(fact.Opaque, f.Name())
		case e.proto != nil && e.proto.Comm:
			fact.Protocols[f.Name()] = e.proto
		}
	}
	sort.Strings(fact.Opaque)
	x.pass.ExportPackageFact(fact)
}
