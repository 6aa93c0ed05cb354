package hypercube

import (
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/obs"
)

// profiledPingPong is a small SPMD body exercising spans, compute and
// neighbor exchanges in both span scopes.
func profiledPingPong(p *Proc) {
	p.BeginSpan("outer")
	p.Compute(10)
	p.BeginSpan("exchange")
	for d := 0; d < p.Dim(); d++ {
		p.Exchange(d, 7+d, []float64{float64(p.ID())})
	}
	p.EndSpan()
	p.Compute(5)
	p.EndSpan()
}

func TestEndSpanWithoutBeginPanics(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	m.EnableProfile(true)
	_, err := m.Run(func(p *Proc) { p.EndSpan() })
	if err == nil || !strings.Contains(err.Error(), "EndSpan without matching BeginSpan") {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenSpanAtRunEndPanics(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	m.EnableProfile(true)
	_, err := m.Run(func(p *Proc) { p.BeginSpan("leaky") })
	if err == nil || !strings.Contains(err.Error(), "leaky") {
		t.Fatalf("err = %v", err)
	}
	// The machine must stay usable after the failed run.
	if _, err := m.Run(profiledPingPong); err != nil {
		t.Fatal(err)
	}
}

func TestSpanOpsIgnoredWhenProfilingOff(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	if _, err := m.Run(func(p *Proc) {
		if p.Profiling() {
			t.Error("Profiling() true without EnableProfile")
		}
		p.BeginSpan("ignored") // deliberately unbalanced: all no-ops
	}); err != nil {
		t.Fatal(err)
	}
	if pf := m.Profile(); pf != nil {
		t.Fatal("Profile() non-nil without EnableProfile")
	}
}

func TestProfileBucketsReconcileExactly(t *testing.T) {
	for _, params := range []costmodel.Params{costmodel.CM2(), costmodel.IPSC(), costmodel.Ideal()} {
		m := MustNew(3, params)
		m.EnableProfile(true)
		if _, err := m.Run(profiledPingPong); err != nil {
			t.Fatal(err)
		}
		pf := m.Profile()
		if pf == nil {
			t.Fatal("Profile() nil after profiled run")
		}
		if err := pf.Check(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		if skew := pf.BucketSkew(); skew != 0 {
			t.Fatalf("bucket skew = %g, want exact 0 (integer-valued params)", float64(skew))
		}
		// Per-processor bucket sums equal the final clocks exactly.
		for pid, b := range pf.ProcTotals {
			if b.Total() != pf.Clocks[pid] {
				t.Fatalf("proc %d: bucket total %g != clock %g", pid, float64(b.Total()), float64(pf.Clocks[pid]))
			}
		}
	}
}

func TestProfileSpanTree(t *testing.T) {
	m := MustNew(3, costmodel.CM2())
	m.EnableProfile(true)
	if _, err := m.Run(profiledPingPong); err != nil {
		t.Fatal(err)
	}
	pf := m.Profile()
	root := pf.Root
	if root.Name != "run" || len(root.Children) != 1 {
		t.Fatalf("root = %q with %d children", root.Name, len(root.Children))
	}
	outer := root.Children[0]
	if outer.Name != "outer" || outer.Count != 1 {
		t.Fatalf("outer = %q count %d (spans are SPMD-symmetric: counted once per run, not per processor)", outer.Name, outer.Count)
	}
	if len(outer.Children) != 1 || outer.Children[0].Name != "exchange" {
		t.Fatalf("outer children = %v", outer.Children)
	}
	ex := outer.Children[0]
	if ex.Incl > outer.Incl || outer.Excl != outer.Incl-ex.Incl {
		t.Fatalf("inclusive/exclusive mismatch: outer incl %g excl %g, child incl %g",
			float64(outer.Incl), float64(outer.Excl), float64(ex.Incl))
	}
	// All messages were sent inside the exchange span.
	if ex.Msgs != int64(m.P()*m.Dim()) {
		t.Fatalf("exchange msgs = %d, want %d", ex.Msgs, m.P()*m.Dim())
	}
	if outer.Excl <= 0 {
		t.Fatal("outer exclusive time should cover its own compute")
	}
}

func TestProfilingDoesNotPerturbClocks(t *testing.T) {
	run := func(profile bool) costmodel.Time {
		m := MustNew(4, costmodel.CM2())
		m.EnableProfile(profile)
		elapsed, err := m.Run(profiledPingPong)
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if off, on := run(false), run(true); off != on {
		t.Fatalf("elapsed differs: off %g vs on %g", float64(off), float64(on))
	}
}

func TestCongestionReadsLinkCounters(t *testing.T) {
	m := MustNew(3, costmodel.CM2())
	// No EnableTrace: volumes must come from the always-on counters.
	if _, err := m.Run(func(p *Proc) {
		// Dimension 0 carries double traffic.
		p.Exchange(0, 5, []float64{1, 2})
		p.Exchange(0, 6, []float64{3, 4})
		p.Exchange(1, 7, []float64{5, 6})
	}); err != nil {
		t.Fatal(err)
	}
	all := m.Congestion(0)
	if len(all) != 2*m.P() {
		t.Fatalf("Congestion(0) lists %d links, want %d", len(all), 2*m.P())
	}
	for i, l := range all {
		// Hottest first: the 4-word dim-0 links, then the 2-word dim-1
		// links, each group by source.
		src, dim := i%m.P(), i/m.P()
		want := obs.LinkLoad{Src: src, Dim: dim, Dst: src ^ 1<<dim, Words: int64(4 - 2*dim)}
		if l != want {
			t.Fatalf("link %d = %+v, want %+v", i, l, want)
		}
	}
	if top := m.Congestion(4); len(top) != 4 || top[3] != all[3] {
		t.Fatalf("Congestion(4) = %+v, want the four dim-0 links", top)
	}

	// The counters describe the most recent run only.
	if _, err := m.Run(func(p *Proc) { p.Exchange(2, 8, []float64{9}) }); err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Congestion(0) {
		if l.Dim != 2 || l.Words != 1 {
			t.Fatalf("after a second run: %+v, want only 1-word dim-2 links", l)
		}
	}
}
