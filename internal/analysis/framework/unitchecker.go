package framework

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"strings"
)

// go vet -vettool support.
//
// When the go command drives an external vet tool it execs it twice:
// once as `tool -V=full` to obtain a version line for the build cache
// key, then once per package as `tool <unit>.cfg`, where the cfg file
// is a JSON description of one compiled package (files, import maps,
// export-data locations, and the path of a "vetx" facts file to
// write). Diagnostics go to stderr as file:line:col: messages and a
// nonzero exit marks the package as failing.
//
// This file implements that contract without x/tools, facts included:
// the unit's PackageVetx map names the facts files of its
// dependencies, which seed the run's fact store, and the store (with
// the unit's own exported facts merged in) is gob-encoded to
// VetxOutput for the unit's importers. Dependency units (VetxOnly)
// run the analyzers for their facts alone and report nothing.

// A VetConfig is the JSON the go command writes for a vet unit, less
// the fields vmlint does not read. GoFiles are the files compiled into
// the package; the ones build constraints exclude are listed apart.
type VetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	GoVersion                 string
}

// UnitcheckerMain handles a go vet -vettool invocation if the argument
// list matches the protocol (-V=full handshake or a *.cfg unit file).
// It returns false if args look like a standalone invocation instead;
// on a protocol match it never returns — it exits with the unit's
// status (0 clean, 2 findings, 1 internal failure).
func UnitcheckerMain(args []string, analyzers []*Analyzer) bool {
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		// Version handshake. The go command's tool-ID probe parses
		// "<name> version devel ... buildID=<id>" and folds the ID into
		// its cache key, so hashing our own binary makes vet results
		// invalidate exactly when the analyzers change.
		id := "unknown"
		if exe, err := os.Executable(); err == nil {
			if data, err := os.ReadFile(exe); err == nil {
				sum := sha256.Sum256(data)
				id = fmt.Sprintf("%x", sum[:16])
			}
		}
		fmt.Printf("vmlint version devel buildID=%s\n", id)
		os.Exit(0)
	}
	if len(args) == 1 && args[0] == "-flags" {
		// Flag-description probe: the go command asks which flags the
		// tool accepts so it can forward matching vet flags. vmlint's
		// own flags (-fix, -diff, -suppressions) are standalone-only;
		// an empty JSON list keeps vet from forwarding anything.
		fmt.Println("[]")
		os.Exit(0)
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		return false
	}
	res, vetxOnly, err := RunUnit(args[0], analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmlint: %v\n", err)
		os.Exit(1)
	}
	if !vetxOnly {
		for _, f := range res.Findings {
			fmt.Fprintf(os.Stderr, "%s\n", f)
		}
		if len(res.Findings) > 0 {
			os.Exit(2)
		}
	}
	os.Exit(0)
	panic("unreachable")
}

// RunUnit processes one vet unit file: it loads the unit package from
// the cfg, seeds the fact store from the dependencies' vetx files,
// runs the analyzers, audits directive names against them (the vet
// driver is always handed the whole roster), and writes the resulting
// facts to the unit's vetx output. It is exported for the vet-mode
// tests; the vet driver goes through UnitcheckerMain. vetxOnly reports
// that the unit exists only to produce facts (its findings, if any,
// were discarded).
func RunUnit(cfgFile string, analyzers []*Analyzer) (res *RunResult, vetxOnly bool, err error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, false, err
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, false, fmt.Errorf("parsing %s: %v", cfgFile, err)
	}

	// Facts in: the driver hands us the vetx file of every dependency
	// it ran the tool on. Each file holds that dependency's transitive
	// fact view, so merging them reconstructs everything our imports
	// know. Fact types must be registered before decoding.
	registerFactTypes(analyzers)
	facts := NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue // missing facts degrade to v1 behavior
		}
		if err := facts.Decode(data); err != nil {
			return nil, false, fmt.Errorf("reading facts from %s: %v", vetx, err)
		}
	}
	writeFacts := func() error {
		if cfg.VetxOutput == "" {
			return nil
		}
		f, err := os.Create(cfg.VetxOutput)
		if err != nil {
			return err
		}
		if err := facts.Encode(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	fset := token.NewFileSet()
	imp := ExportImporter(fset, func(path string) string {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		return cfg.PackageFile[path]
	})
	pkg, err := Check(fset, cfg.ImportPath, cfg.Dir, cfg.GoFiles, imp, cfg.GoVersion)
	if cfg.SucceedOnTypecheckFailure && (err != nil || len(pkg.TypeErrors) > 0) {
		return &RunResult{}, cfg.VetxOnly, writeFacts()
	}
	if err != nil {
		return nil, false, err
	}
	pkg.FactsOnly = cfg.VetxOnly

	res, err = Run([]*Package{pkg}, analyzers, facts)
	if err != nil {
		return nil, false, err
	}
	AuditDirectiveNames(res, analyzers)
	return res, cfg.VetxOnly, writeFacts()
}
