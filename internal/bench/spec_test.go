package bench

import (
	"encoding/json"
	"fmt"
	"testing"

	"vmprim/internal/hypercube"
)

// armed is the recorder set vmprimd serves with: profiler and
// critical-path tracer both on.
var armed = ProfileOpts{Profile: true, CritPath: true}

func TestRunSpecNormalized(t *testing.T) {
	s, err := RunSpec{Exp: "e4"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.Exp != "E4" || s.D != 8 || s.N != 128 || s.Model != "cm2" {
		t.Fatalf("normalized e4 = %+v, want table defaults", s)
	}
	s, err = RunSpec{Exp: "E1", D: 4, N: 64, Model: "IPSC"}.Normalized()
	if err != nil || s.D != 4 || s.N != 64 || s.Model != "ipsc" {
		t.Fatalf("override spec = %+v, %v", s, err)
	}
	for _, bad := range []RunSpec{
		{Exp: "E9"},
		{Exp: "E1", D: specMaxD + 1},
		{Exp: "E1", N: 2},
		{Exp: "E1", N: specMaxN * 2},
		{Exp: "E1", Model: "lognormal"},
	} {
		if _, err := bad.Normalized(); err == nil {
			t.Fatalf("spec %+v normalized without error", bad)
		}
	}
}

// FuzzRunSpec drives the path an untrusted POST /runs body takes
// before any machine is built: bytes → json.Unmarshal → Normalized.
// It must never panic, and a spec it accepts must lie inside the size
// bounds, name a known experiment and cost model, and be a fixed point
// of Normalized.
func FuzzRunSpec(f *testing.F) {
	for _, e := range All() {
		f.Add([]byte(fmt.Sprintf(`{"exp":%q}`, e.ID)))
	}
	for _, edge := range []string{
		fmt.Sprintf(`{"exp":"e1","d":1,"n":%d,"model":"IPSC"}`, specMinN),
		fmt.Sprintf(`{"exp":"E2","d":%d,"n":%d,"model":"cm2"}`, specMaxD, specMaxN),
		fmt.Sprintf(`{"exp":"E3","d":%d,"n":%d}`, specMaxD+1, specMinN-1),
		fmt.Sprintf(`{"exp":" e4 ","d":-1,"n":%d}`, specMaxN+1),
	} {
		f.Add([]byte(edge))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec RunSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		norm, err := spec.Normalized()
		if err != nil {
			return
		}
		if norm.D < 1 || norm.D > specMaxD || norm.N < specMinN || norm.N > specMaxN {
			t.Fatalf("%s: accepted out-of-bounds spec %+v", body, norm)
		}
		if norm.Model != "cm2" && norm.Model != "ipsc" {
			t.Fatalf("%s: accepted unknown model in %+v", body, norm)
		}
		if e, ok := ByID(norm.Exp); !ok || e.profile == nil {
			t.Fatalf("%s: accepted unknown experiment in %+v", body, norm)
		}
		again, err := norm.Normalized()
		if err != nil || again != norm {
			t.Fatalf("%s: Normalized not idempotent: %+v → %+v, %v", body, norm, again, err)
		}
	})
}

// Tenants a MachinePool serves one after another on one machine must
// be deterministic run to run, recorder hygiene included: a profiled
// tenant followed by an unprofiled one leaves no profile, and each
// tenant's metrics, read straight off its result, count only its own
// run.
func TestRunSpecPooledReuse(t *testing.T) {
	spec, err := RunSpec{Exp: "E1", D: 4, N: 64}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	mp := hypercube.NewMachinePool(1)
	defer mp.Close()
	tenant := func(s RunSpec, opts ProfileOpts, wantHit bool) *ProfileResult {
		t.Helper()
		m, hit, err := mp.Acquire(s.D, s.CostParams())
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Release(m)
		if hit != wantHit {
			t.Fatalf("%s: pool hit = %v, want %v", s.Exp, hit, wantHit)
		}
		res, err := s.RunOn(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := tenant(spec, armed, false)
	second := tenant(spec, ProfileOpts{}, true)
	if second.Profile != nil || second.CritPath != nil {
		t.Fatal("recorders left armed from the previous tenant")
	}
	if first.Times[0] != second.Times[0] {
		t.Fatalf("reused machine drifted: %v then %v", first.Times[0], second.Times[0])
	}
	for _, name := range []string{"vmprim_runs_total", "vmprim_messages_total", "vmprim_words_total"} {
		v1, ok1 := first.Metrics.Value(name)
		v2, ok2 := second.Metrics.Value(name)
		if !ok1 || !ok2 {
			t.Fatalf("metric %s missing from a tenant's metrics", name)
		}
		if v1 != v2 {
			t.Fatalf("%s differs across identical tenants: %g vs %g", name, v1, v2)
		}
	}
	// Different experiment family on the same machine shape also works.
	tenant(RunSpec{Exp: "E2", D: 4, N: 64}, ProfileOpts{}, true)
}
