package framework

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
)

// The fact store.
//
// Facts are per-package summaries keyed by (package path, concrete
// fact type). Within one standalone run the store is shared across
// packages, so analyzing packages in dependency order makes every
// dependency's facts visible to its importers. Under the vet -vettool
// protocol each package is a separate process invocation; the store
// is then serialized (gob) into the unit's .vetx output file and
// reconstituted from the dependencies' .vetx inputs, which is how
// facts cross both package and process boundaries.

// A FactStore holds the package facts of one analysis run.
type FactStore struct {
	m map[factKey]Fact
}

type factKey struct {
	path string
	typ  reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

func (s *FactStore) set(path string, fact Fact) {
	s.m[factKey{path, reflect.TypeOf(fact)}] = fact
}

// get copies the stored fact for (path, type of *fact) into *fact,
// reporting whether one was present. fact must be a non-nil pointer.
func (s *FactStore) get(path string, fact Fact) bool {
	stored, ok := s.m[factKey{path, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(fact).Elem()
	dv.Set(reflect.ValueOf(stored).Elem())
	return true
}

// all returns the store's contents sorted by package path then type
// name, for deterministic serialization and listings.
func (s *FactStore) all() []PackageFact {
	out := make([]PackageFact, 0, len(s.m))
	for k, f := range s.m {
		out = append(out, PackageFact{Path: k.path, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return factTypeName(out[i].Fact) < factTypeName(out[j].Fact)
	})
	return out
}

// gobFact is the serialized form of one store entry.
type gobFact struct {
	Path string
	Fact Fact
}

// Encode writes the whole store to w in gob form. The output includes
// facts imported from dependencies, not only facts exported by the
// current unit: the vet driver hands each unit the vetx files of its
// direct imports only, so re-exporting everything seen makes facts
// flow transitively.
func (s *FactStore) Encode(w io.Writer) error {
	var gfs []gobFact
	for _, pf := range s.all() {
		gfs = append(gfs, gobFact{Path: pf.Path, Fact: pf.Fact})
	}
	return gob.NewEncoder(w).Encode(gfs)
}

// Decode merges the gob-encoded facts in data into the store. Empty
// input is accepted silently: an empty vetx file is what a fact-free
// build (or the v1 tool) writes, and treating it as "no facts" keeps
// mixed-version build caches working.
func (s *FactStore) Decode(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var gfs []gobFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&gfs); err != nil {
		return fmt.Errorf("decoding facts: %v", err)
	}
	for _, gf := range gfs {
		s.set(gf.Path, gf.Fact)
	}
	return nil
}

// factTypeName is the stable registration name for a fact's concrete
// type: the %T rendering, e.g. "*collorder.Fact".
func factTypeName(f Fact) string {
	return fmt.Sprintf("%T", f)
}

var (
	registerMu sync.Mutex
	registered = make(map[string]bool)
)

// registerFactTypes registers every fact type declared by analyzers
// with gob, under the stable %T name, so stores round-trip across
// processes regardless of registration order.
func registerFactTypes(analyzers []*Analyzer) {
	registerMu.Lock()
	defer registerMu.Unlock()
	for _, a := range analyzers {
		for _, ft := range a.FactTypes {
			name := factTypeName(ft)
			if !registered[name] {
				registered[name] = true
				gob.RegisterName(name, ft)
			}
		}
	}
}
