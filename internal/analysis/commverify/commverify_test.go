package commverify

import (
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vmprim/internal/analysis/analysistest"
	"vmprim/internal/analysis/collectives"
	"vmprim/internal/analysis/framework"
)

const (
	cvPath     = "vmprim/internal/apps/cv"
	xrelayPath = "vmprim/internal/other/xrelay"
)

func TestCommverify(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata"), Analyzer, cvPath)
}

// TestCrossPackageFacts proves the RelaySkew finding rides on the
// xrelay protocol facts: with the dependency analyzed the tag
// mismatch is found, without it the scope is unverifiable and the
// checker stays silent rather than guessing.
func TestCrossPackageFacts(t *testing.T) {
	testdata := filepath.Join("..", "testdata")
	count := func(withFacts bool) int {
		n := 0
		for _, f := range analysistest.Findings(t, testdata, Analyzer, cvPath, withFacts) {
			if strings.Contains(f.Message, "carries tag 4") {
				n++
			}
		}
		return n
	}
	if got := count(true); got != 1 {
		t.Errorf("with facts: got %d RelaySkew findings, want 1", got)
	}
	if got := count(false); got != 0 {
		t.Errorf("without facts: got %d RelaySkew findings, want 0 (unverifiable scopes must stay silent)", got)
	}
}

// throughGob returns a new store holding what store's vetx file would
// hand to another process.
func throughGob(t *testing.T, store *framework.FactStore) *framework.FactStore {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Encode(&buf); err != nil {
		t.Fatalf("encoding facts: %v", err)
	}
	out := framework.NewFactStore()
	if err := out.Decode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrossPackageFactsSerialized hands cv the xrelay summaries the
// way the vet driver does, through an encoded store, and wants the
// RelaySkew finding exactly where the shared in-memory store puts it.
func TestCrossPackageFactsSerialized(t *testing.T) {
	// The fixture loader belongs to analysistest; an analyzer run
	// through it sees every loaded package, dependencies first.
	var target *framework.Package
	var deps []*framework.Package
	capture := &framework.Analyzer{
		Name: "capture",
		Doc:  "collect the fixture packages",
		Run: func(pass *framework.Pass) (any, error) {
			pkg := &framework.Package{PkgPath: pass.Pkg.Path(), Fset: pass.Fset,
				Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}
			if pkg.PkgPath == cvPath {
				target = pkg
			} else {
				pkg.FactsOnly = true
				deps = append(deps, pkg)
			}
			return nil, nil
		},
	}
	analysistest.Findings(t, filepath.Join("..", "testdata"), capture, cvPath, true)

	relaySkew := func(store *framework.FactStore) token.Position {
		t.Helper()
		res, err := framework.RunWithFacts([]*framework.Package{target}, []*framework.Analyzer{Analyzer}, store)
		if err != nil {
			t.Fatal(err)
		}
		var at []token.Position
		for _, f := range res.Findings {
			if strings.Contains(f.Message, "carries tag 4") {
				at = append(at, f.Pos)
			}
		}
		if len(at) != 1 {
			t.Fatalf("got %d RelaySkew findings, want 1: %v", len(at), res.Findings)
		}
		return at[0]
	}

	store := framework.NewFactStore()
	if _, err := framework.RunWithFacts(deps, []*framework.Analyzer{Analyzer}, store); err != nil {
		t.Fatal(err)
	}
	inMemory := relaySkew(store)
	serialized := relaySkew(throughGob(t, store))
	if inMemory != serialized {
		t.Errorf("RelaySkew reported at %v through the in-memory store, at %v through the serialized one", inMemory, serialized)
	}
}

// TestImportedProtocolIsolation inlines xrelay.HopSend at its two cv
// call sites against the shared in-memory store, where every importer
// is handed the exporter's own tree: each site must get a tree of its
// own, stamped with its own position, and the store's must stay as
// exported.
func TestImportedProtocolIsolation(t *testing.T) {
	// sendOf digs the one Send out of HopSend's protocol.
	sendOf := func(hopSend *protocol) *opStmt {
		return hopSend.Body[0].(*ifStmt).Then[0].(*opStmt)
	}
	probe := &framework.Analyzer{
		Name:      "probe",
		Doc:       "inline an imported protocol twice",
		Requires:  Analyzer.Requires,
		FactTypes: Analyzer.FactTypes,
		Run: func(pass *framework.Pass) (any, error) {
			x := newExtractor(pass, pass.ResultOf[collectives.Analyzer].(*collectives.Result))
			switch pass.Pkg.Path() {
			case xrelayPath:
				x.exportFact()
			case cvPath:
				stored := x.facts[xrelayPath].Protocols["HopSend"]
				exported := *sendOf(stored)
				var sites []*ast.CallExpr
				var inlined []*opStmt
				for _, name := range []string{"RelayPair", "RelaySkew"} {
					fn := pass.Pkg.Scope().Lookup(name).(*types.Func)
					sites = append(sites, x.bodies[fn].Body.List[0].(*ast.ExprStmt).X.(*ast.CallExpr))
					inlined = append(inlined, sendOf(x.protocolOf(fn).proto.Body[0].(*callStmt).Callee))
				}
				for i, op := range inlined {
					if op.Pos != sites[i].Pos() {
						t.Errorf("call site %d: inlined Send is at %v, want the call at %v",
							i, pass.Fset.Position(op.Pos), pass.Fset.Position(sites[i].Pos()))
					}
				}
				if inlined[0] == inlined[1] || inlined[0] == sendOf(stored) {
					t.Error("call sites share one tree with each other or with the fact store")
				}
				inlined[0].Tag = constE(99)
				inlined[0].Pos = token.NoPos
				if got := sendOf(stored); got.Pos != exported.Pos || got.Tag != exported.Tag {
					t.Errorf("changing one call site's tree changed the store's: %+v", got)
				}
				if got := inlined[1]; got.Pos != sites[1].Pos() || got.Tag != exported.Tag {
					t.Errorf("changing one call site's tree changed the other's: %+v", got)
				}
			}
			return nil, nil
		},
	}
	analysistest.Findings(t, filepath.Join("..", "testdata"), probe, cvPath, true)
}

// TestProtocolRoundTrip pushes a protocol exercising every IR
// construct through the framework's gob, the only wire format facts
// have: what an importer decodes must be structurally what the
// exporter stored.
func TestProtocolRoundTrip(t *testing.T) {
	inner := &protocol{
		Params: []string{"$1"},
		Body: []stmt{
			&opStmt{Kind: opSend, Pos: 11, Dim: constE(0), Tag: varE("$1")},
			&retStmt{},
		},
	}
	inner.Comm, inner.P2P = scan(inner.Body)
	p := &protocol{
		Body: []stmt{
			&ifStmt{
				Cond: binE(token.EQL, binE(token.AND, &expr{Kind: eID}, constE(1)), constE(0)),
				Then: []stmt{&opStmt{Kind: opExchange, Dim: constE(0), Tag: constE(7)}},
				Els:  []stmt{&opStmt{Kind: opRecv, Dim: constE(0), Tag: unE(token.SUB, constE(7))}},
			},
			&forStmt{V: "v1", From: constE(0), To: &expr{Kind: eDim}, Incl: false, Body: []stmt{
				&opStmt{Kind: opExchangeAll, Dims: []*expr{varE("v1")}, Tag: constE(3)},
			}},
			&opStmt{Kind: opColl, Name: "Bcast", Mask: constE(3), Tag: constE(4), Root: constE(0)},
			&callStmt{Callee: inner, Args: []*expr{constE(9)}},
		},
	}
	p.Comm, p.P2P = scan(p.Body)
	sent := &Fact{Protocols: map[string]*protocol{"P": p}, Opaque: []string{"Q"}}

	// Facts enter and leave a store only through a pass.
	const path = "example.com/p"
	runOn := func(store *framework.FactStore, run func(*framework.Pass)) {
		t.Helper()
		a := &framework.Analyzer{Name: "facts", Doc: "export or import one fact", FactTypes: Analyzer.FactTypes,
			Run: func(pass *framework.Pass) (any, error) { run(pass); return nil, nil }}
		pkg := &framework.Package{PkgPath: path, Fset: token.NewFileSet(),
			Types: types.NewPackage(path, "p"), Info: framework.NewInfo()}
		if _, err := framework.RunWithFacts([]*framework.Package{pkg}, []*framework.Analyzer{a}, store); err != nil {
			t.Fatal(err)
		}
	}
	store := framework.NewFactStore()
	runOn(store, func(pass *framework.Pass) { pass.ExportPackageFact(sent) })
	var got Fact
	runOn(throughGob(t, store), func(pass *framework.Pass) {
		if !pass.ImportPackageFact(pass.Pkg, &got) {
			t.Fatal("no commverify fact in the decoded store")
		}
	})

	if !reflect.DeepEqual(&got, sent) {
		t.Errorf("decoded fact differs from the exported one:\n got %+v\nwant %+v", got.Protocols["P"], p)
	}
	if q := got.Protocols["P"]; q == p || !q.Comm || !q.P2P {
		t.Errorf("decoded protocol is the exporter's pointer or lost its summary: comm=%v p2p=%v", q.Comm, q.P2P)
	}
}
