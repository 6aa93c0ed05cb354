package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
)

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
	for _, id := range ProfileIDs() {
		f.Add([]byte(fmt.Sprintf(`{"exp":%q}`, id)))
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
		if !slices.Contains(ProfileIDs(), norm.Exp) {
			t.Fatalf("%s: accepted unknown experiment in %+v", body, norm)
		}
		again, err := norm.Normalized()
		if err != nil || again != norm {
			t.Fatalf("%s: Normalized not idempotent: %+v → %+v, %v", body, norm, again, err)
		}
	})
}

// A default-spec RunOn on a fresh machine is the same computation as
// ProfileRun: same simulated times, clocks and metric totals. E4 is
// the cheapest full-size workload.
func TestRunSpecMatchesProfileRun(t *testing.T) {
	want, err := ProfileRun("E4", true)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := RunSpec{Exp: "E4"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	m, err := hypercube.New(spec.D, spec.CostParams())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, err := spec.RunOn(m, ProfileOpts{Profile: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("%d times vs %d", len(got.Times), len(want.Times))
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("time %d: %v != %v", i, got.Times[i], want.Times[i])
		}
	}
	for i := range want.Clocks {
		if got.Clocks[i] != want.Clocks[i] {
			t.Fatalf("clock %d: %v != %v", i, got.Clocks[i], want.Clocks[i])
		}
	}
	if got.Desc != want.Desc {
		t.Fatalf("desc %q != %q", got.Desc, want.Desc)
	}
	if got.Profile == nil || got.CritPath == nil {
		t.Fatal("RunOn with recorders armed returned nil profile or critpath")
	}
	if got.CritPath.Makespan != want.CritPath.Makespan {
		t.Fatalf("critpath makespan %v != %v", got.CritPath.Makespan, want.CritPath.Makespan)
	}
}

// Reusing one machine across specs must be deterministic run to run,
// recorder hygiene included: a profiled tenant followed by an
// unprofiled one leaves no profile, and per-run metric deltas around
// each tenant are identical.
func TestRunSpecPooledReuse(t *testing.T) {
	spec, err := RunSpec{Exp: "E1", D: 4, N: 64}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	m, err := hypercube.New(spec.D, spec.CostParams())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	before := m.Metrics().Snapshot()
	first, err := spec.RunOn(m, ProfileOpts{Profile: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	d1 := metrics.Delta(first.Metrics, before)

	before = m.Metrics().Snapshot()
	second, err := spec.RunOn(m, ProfileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	d2 := metrics.Delta(second.Metrics, before)

	if second.Profile != nil || second.CritPath != nil {
		t.Fatal("recorders left armed from the previous tenant")
	}
	if first.Times[0] != second.Times[0] {
		t.Fatalf("reused machine drifted: %v then %v", first.Times[0], second.Times[0])
	}
	for _, name := range []string{"vmprim_runs_total", "vmprim_messages_total", "vmprim_words_total"} {
		v1, ok1 := d1.Value(name)
		v2, ok2 := d2.Value(name)
		if !ok1 || !ok2 {
			t.Fatalf("metric %s missing from deltas", name)
		}
		if v1 != v2 {
			t.Fatalf("per-run delta of %s differs across identical tenants: %g vs %g", name, v1, v2)
		}
	}
	// Different experiment family on the same machine shape also works.
	if _, err := (RunSpec{Exp: "E2", D: 4, N: 64}).RunOn(m, ProfileOpts{}); err != nil {
		t.Fatal(err)
	}
}
