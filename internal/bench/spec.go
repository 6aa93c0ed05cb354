package bench

import (
	"fmt"
	"strings"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// RunSpec names one profiled workload instance: an experiment family
// (E1..E5) plus optional size and cost-model overrides, and it is the
// only way to run one: Run on a fresh machine, RunOn on a caller's.
// The zero overrides select the registry's defaults, one configuration
// of the experiment's table, with the same seeds and so the same
// simulated times. Overriding D or N keeps the same seed formulas but
// at the requested size, which is how the load harness drives
// thousands of small runs without paying the full-size workloads. The
// spec is JSON-shaped so serving layers can embed it in request bodies
// directly.
type RunSpec struct {
	// Exp is the experiment family, E1..E5 (case-insensitive).
	Exp string `json:"exp"`
	// D is the cube dimension; 0 means the experiment's table default.
	D int `json:"d,omitempty"`
	// N is the problem size (matrix order for E1..E4, LP row count for
	// E5, whose column count is fixed at 3N/2); 0 means the table
	// default.
	N int `json:"n,omitempty"`
	// Model selects the cost model: "cm2" (default) or "ipsc".
	Model string `json:"model,omitempty"`
}

// ProfileIDs lists the experiment ids RunSpec accepts: those of the
// registry that carry a profiled workload, in registry order.
func ProfileIDs() []string {
	var ids []string
	for _, e := range experiments {
		if e.profile != nil {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// Spec size bounds: the server accepts untrusted specs, so Normalized
// refuses shapes that would hog the host (a d=20 cube is a million
// goroutines) before any machine is built.
const (
	specMaxD = 12
	specMinN = 4
	specMaxN = 4096
)

// Normalized validates the spec and fills in the experiment defaults
// for any zero field, returning the fully concrete spec.
func (s RunSpec) Normalized() (RunSpec, error) {
	s.Exp = strings.ToUpper(strings.TrimSpace(s.Exp))
	def, ok := ByID(s.Exp)
	if !ok || def.profile == nil {
		return s, fmt.Errorf("bench: no profiled workload for %q (have %v)", s.Exp, ProfileIDs())
	}
	if s.D == 0 {
		s.D = def.d
	}
	if s.N == 0 {
		s.N = def.n
	}
	if s.D < 1 || s.D > specMaxD {
		return s, fmt.Errorf("bench: spec d=%d out of range [1, %d]", s.D, specMaxD)
	}
	if s.N < specMinN || s.N > specMaxN {
		return s, fmt.Errorf("bench: spec n=%d out of range [%d, %d]", s.N, specMinN, specMaxN)
	}
	switch strings.ToLower(s.Model) {
	case "":
		s.Model = "cm2"
	case "cm2", "ipsc":
		s.Model = strings.ToLower(s.Model)
	default:
		return s, fmt.Errorf("bench: unknown cost model %q (have cm2, ipsc)", s.Model)
	}
	return s, nil
}

// CostParams returns the cost-model parameters the spec's Model names.
// Call on a normalized spec; an unknown model answers CM2.
func (s RunSpec) CostParams() costmodel.Params {
	if strings.EqualFold(s.Model, "ipsc") {
		return costmodel.IPSC()
	}
	return costmodel.CM2()
}

// RunOn executes the spec's workload on m, arming (or explicitly
// disarming — m may be pooled, with recorders left over from its
// previous tenant) the profiler, message trace and critical-path
// tracer per opts. The machine must have the spec's dimension; its
// cost model is whatever it was built or last acquired from a
// MachinePool with, so callers should build or acquire it with
// CostParams. Host-side workload panics (degenerate embeddings and
// the like) are returned as errors rather than taking the process
// down.
func (s RunSpec) RunOn(m *hypercube.Machine, opts ProfileOpts) (res *ProfileResult, err error) {
	ns, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if m.Dim() != ns.D {
		return nil, fmt.Errorf("bench: spec wants d=%d but machine has d=%d", ns.D, m.Dim())
	}
	m.EnableProfile(opts.Profile)
	m.EnableTrace(profileTraceLimit) // records only in a profiled run
	m.EnableCritPath(opts.CritPath)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("bench: %s workload panicked: %v", ns.Exp, r)
		}
	}()
	def, _ := ByID(ns.Exp) // Normalized vouched for the id
	return def.profile(m, ns, opts)
}

// Run executes the spec's workload as RunOn does, on a fresh machine
// built for it (its dimension, its cost model from CostParams) and
// closed before Run returns. With the zero overrides this reproduces
// the EXPERIMENTS.md configuration.
func (s RunSpec) Run(opts ProfileOpts) (*ProfileResult, error) {
	ns, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	m, err := hypercube.New(ns.D, ns.CostParams())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return ns.RunOn(m, opts)
}
