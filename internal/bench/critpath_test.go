package bench

import "testing"

// TestProfileCritPathInvariants: every profiled workload's critical
// path satisfies the structural invariants and its weights sum to the
// last run's makespan exactly.
func TestProfileCritPathInvariants(t *testing.T) {
	ids := ProfileIDs()
	if testing.Short() {
		ids = []string{"E2", "E4"}
	}
	for _, id := range ids {
		res, err := RunSpec{Exp: id}.Run(armed)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		cp := res.CritPath
		if cp == nil {
			t.Fatalf("%s: no critical path", id)
		}
		if err := cp.Check(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if last := res.Times[len(res.Times)-1]; cp.Makespan != last {
			t.Errorf("%s: path makespan %g != last run elapsed %g", id, float64(cp.Makespan), float64(last))
		}
		if cp.Buckets.Total() != cp.Makespan {
			t.Errorf("%s: path weights sum to %g, want the makespan %g",
				id, float64(cp.Buckets.Total()), float64(cp.Makespan))
		}
		// The profile embeds the same path object.
		if res.Profile == nil || res.Profile.Crit != cp {
			t.Errorf("%s: profile does not embed the critical path", id)
		}
	}
}

// TestConformanceE1E4WithinThreshold pins the acceptance criterion:
// the primitive-based workloads E1 and E4 reproduce the paper's
// predicted costs within the documented threshold, under both machine
// models.
func TestConformanceE1E4WithinThreshold(t *testing.T) {
	for _, id := range []string{"E1", "E4"} {
		for _, name := range []string{"cm2", "ipsc"} {
			res, err := RunSpec{Exp: id, Model: name}.Run(ProfileOpts{CritPath: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", id, name, err)
			}
			cp := res.CritPath
			if len(cp.Conformance) == 0 {
				t.Fatalf("%s/%s: no conformance entries", id, name)
			}
			worst, flagged := cp.WorstConformance()
			if flagged != 0 {
				t.Errorf("%s/%s: %d spans flagged (worst ratio %.2f, threshold %.1f): %+v",
					id, name, flagged, worst, cp.Threshold, cp.Conformance)
			}
		}
	}
}

// TestConformanceE3RouteEntriesPresent: the router-based naive matvec
// records route predictions, so its conformance shows up in the report
// (the hot-spot flagging itself is pinned in the router package's
// conformance test).
func TestConformanceE3RouteEntriesPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("E3 runs all three matvec variants")
	}
	res, err := RunSpec{Exp: "E3"}.Run(armed)
	if err != nil {
		t.Fatal(err)
	}
	routes := 0
	for _, e := range res.CritPath.Conformance {
		if e.Name == "matvec(naive)>route-products>route" ||
			e.Name == "matvec(naive)>fetch-x>route-request>route" {
			routes++
		}
	}
	if routes != 2 {
		t.Errorf("found %d route conformance entries, want 2: %+v", routes, res.CritPath.Conformance)
	}
}
