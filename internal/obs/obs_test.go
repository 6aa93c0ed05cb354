package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"vmprim/internal/bench"
	"vmprim/internal/obs"
)

// The profiler invariants, checked on real experiment workloads: the
// bench package runs the representative E1–E5 configurations with the
// profiler on, so these tests exercise the whole stack — machine,
// collectives, router, primitives, app drivers — not synthetic data.

// TestProfiledTimesBitIdentical is the core non-perturbation claim:
// running a workload with the profiler on must give digit-for-digit
// the same simulated times as running it with the profiler off.
func TestProfiledTimesBitIdentical(t *testing.T) {
	for _, id := range []string{"E1", "E3"} {
		off, err := bench.RunSpec{Exp: id}.Run(bench.ProfileOpts{})
		if err != nil {
			t.Fatal(err)
		}
		on, err := bench.RunSpec{Exp: id}.Run(bench.ProfileOpts{Profile: true, CritPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(off.Times) != len(on.Times) {
			t.Fatalf("%s: run counts differ: %d vs %d", id, len(off.Times), len(on.Times))
		}
		for i := range off.Times {
			if off.Times[i] != on.Times[i] {
				t.Errorf("%s run %d: %g us off vs %g us on", id, i, float64(off.Times[i]), float64(on.Times[i]))
			}
		}
		if off.Profile != nil {
			t.Errorf("%s: profile present with the profiler off", id)
		}
		if on.Profile == nil {
			t.Errorf("%s: profile missing with the profiler on", id)
		}
	}
}

func e2Profile(t *testing.T) *obs.Profile {
	t.Helper()
	res, err := bench.RunSpec{Exp: "E2"}.Run(bench.ProfileOpts{Profile: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("no profile")
	}
	return res.Profile
}

func TestProfileInvariants(t *testing.T) {
	pf := e2Profile(t)
	if err := pf.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if skew := pf.BucketSkew(); skew != 0 {
		t.Fatalf("bucket skew %g, want exact 0", float64(skew))
	}
	// Per-processor bucket sums equal the final virtual clocks.
	for pid, b := range pf.ProcTotals {
		if b.Total() != pf.Clocks[pid] {
			t.Fatalf("proc %d: buckets %g != clock %g", pid, float64(b.Total()), float64(pf.Clocks[pid]))
		}
	}
	// Inclusive time of every span covers the exclusive time of its
	// children (summed over processors, both sides).
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		var childExcl, childIncl obs.Span
		for _, c := range s.Children {
			childExcl.Excl += c.Excl
			childIncl.Incl += c.Incl
			walk(c)
		}
		if s.Incl < childExcl.Excl {
			t.Fatalf("span %q: incl %g < sum of children excl %g", s.Name, float64(s.Incl), float64(childExcl.Excl))
		}
		if s.Incl < childIncl.Incl {
			t.Fatalf("span %q: incl %g < sum of children incl %g", s.Name, float64(s.Incl), float64(childIncl.Incl))
		}
	}
	walk(pf.Root)
	// The synthetic root aggregates every processor's whole clock.
	var clocks float64
	for _, c := range pf.Clocks {
		clocks += float64(c)
	}
	if float64(pf.Root.Incl) != clocks {
		t.Fatalf("root incl %g != sum of clocks %g", float64(pf.Root.Incl), clocks)
	}
	if pf.Root.MaxIncl != pf.Elapsed {
		t.Fatalf("root max incl %g != elapsed %g", float64(pf.Root.MaxIncl), float64(pf.Elapsed))
	}
}

func TestProfileExportsAreValidJSON(t *testing.T) {
	pf := e2Profile(t)
	var buf bytes.Buffer
	if err := pf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		P        int `json:"p"`
		Dim      int `json:"dim"`
		SkewUs   any `json:"bucket_skew_us"`
		Spans    any `json:"spans"`
		Congest  any `json:"congestion"`
		Elapsed  any `json:"elapsed_us"`
		Buckets  any `json:"buckets_mean_us"`
		Messages any `json:"msgs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("profile JSON: %v", err)
	}
	if doc.P != pf.P || doc.Dim != pf.Dim || doc.Spans == nil {
		t.Fatalf("profile JSON missing fields: %+v", doc)
	}

	buf.Reset()
	if err := pf.ChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("Chrome trace has no events")
	}
	var spans, flows int
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "s", "f":
			flows++
		}
	}
	if spans == 0 {
		t.Fatal("Chrome trace has no complete (span) events")
	}
	if flows == 0 {
		t.Fatal("Chrome trace has no flow (message) events — EnableTrace was set, arrows expected")
	}
	var tree bytes.Buffer
	pf.WriteTree(&tree)
	if !bytes.Contains(tree.Bytes(), []byte("reduce-rows")) {
		t.Fatalf("text tree missing expected span:\n%s", tree.String())
	}
}
