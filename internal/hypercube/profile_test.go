package hypercube

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
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
		p.BeginSpan("ignored")
		p.EndSpan()
	}); err != nil {
		t.Fatal(err)
	}
	if pf := m.Profile(); pf != nil {
		t.Fatal("Profile() non-nil without EnableProfile")
	}
}

// TestSpanBalanceCheckedUnprofiled pins that span balance is part of
// every Run, not of profiling: without EnableProfile a body that returns
// with a span open fails the run, with a post-mortem, and an EndSpan
// with none open panics.
func TestSpanBalanceCheckedUnprofiled(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) { p.BeginSpan("leaky") })
	var re *RunError
	if !errors.As(err, &re) || re.Report == nil || !strings.Contains(err.Error(), "1 span(s) left open at end of run") {
		t.Fatalf("err = %v, want the open-span failure with a post-mortem", err)
	}
	_, err = m.Run(func(p *Proc) { p.EndSpan() })
	if err == nil || !strings.Contains(err.Error(), "EndSpan without matching BeginSpan") {
		t.Fatalf("err = %v, want the unmatched-EndSpan panic", err)
	}
	if _, err := m.Run(profiledPingPong); err != nil || m.Profile() != nil {
		t.Fatalf("balanced spans, unprofiled: err %v, profile %v", err, m.Profile())
	}
}

// TestSpanDepthResetAfterPanic: processor 1 panics inside two open
// spans while its siblings wait in a receive, and the same machine's
// next Run, direct and pooled through MachinePool, must start every
// processor at depth 0; under three schedules, profiled and not.
func TestSpanDepthResetAfterPanic(t *testing.T) {
	fail := func(t *testing.T, m *Machine) {
		_, err := m.Run(func(p *Proc) {
			p.BeginSpan("outer")
			p.BeginSpan("inner")
			if p.ID() == 1 {
				panic("boom")
			}
			p.Recycle(p.Recv(0, 1))
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want processor 1's panic", err)
		}
	}
	next := func(t *testing.T, m *Machine) {
		if _, err := m.Run(func(p *Proc) {
			if p.spanDepth != 0 {
				t.Errorf("processor %d starts the Run at span depth %d", p.ID(), p.spanDepth)
			}
			p.BeginSpan("next")
			p.EndSpan()
		}); err != nil {
			t.Fatalf("the Run after the panic: %v", err)
		}
		if _, err := m.Run(func(p *Proc) { p.EndSpan() }); err == nil {
			t.Fatal("EndSpan with no span opened in its Run passed")
		}
	}
	for _, s := range []Schedule{{Policy: "fifo"}, {Policy: "lifo"}, {Policy: "random", Seed: 1}} {
		for _, prof := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-profile=%v", s, prof), func(t *testing.T) {
				m := MustNew(2, costmodel.Ideal())
				s.Apply(m)
				m.EnableProfile(prof)
				fail(t, m)
				next(t, m)
				mp := NewMachinePool(1)
				defer mp.Close()
				fail(t, m)
				mp.Release(m)
				if pm, hit, err := mp.Acquire(2, costmodel.Ideal()); err != nil || pm != m {
					t.Fatalf("Acquire after Release: hit %v, same machine %v, err %v", hit, pm == m, err)
				}
				next(t, m)
			})
		}
	}
}

// TestSpanNodeIdentity pins how the span recorder identifies nodes,
// which its flat (Parent, Name) lookup relies on: a name under two
// parents makes two nodes, reopening a name under the same parent
// reuses its node, and node ids follow first-discovery order on every
// processor.
func TestSpanNodeIdentity(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	m.EnableProfile(true)
	span := func(p *Proc, name string, body func()) {
		p.BeginSpan(name)
		body()
		p.EndSpan()
	}
	nop := func() {}
	if _, err := m.Run(func(p *Proc) {
		span(p, "a", func() { span(p, "x", nop) })
		span(p, "b", func() {
			span(p, "x", nop)
			span(p, "x", nop)
		})
		span(p, "a", func() { span(p, "y", nop) })
		span(p, "x", nop)
	}); err != nil {
		t.Fatal(err)
	}
	want := []obs.NodeMeta{
		{Name: "a", Parent: -1}, {Name: "x", Parent: 0}, {Name: "b", Parent: -1},
		{Name: "x", Parent: 2}, {Name: "y", Parent: 0}, {Name: "x", Parent: -1},
	}
	wantCount := []int64{2, 1, 1, 2, 1, 1}
	for pid, pr := range m.procs {
		if fmt.Sprint(pr.ps.nodes) != fmt.Sprint(want) {
			t.Fatalf("proc %d nodes = %v, want %v", pid, pr.ps.nodes, want)
		}
		for i, a := range pr.ps.agg {
			if a.Count != wantCount[i] {
				t.Errorf("proc %d node %d (%s) count = %d, want %d", pid, i, want[i].Name, a.Count, wantCount[i])
			}
		}
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
	if ex.Messages != int64(m.P()*m.Dim()) {
		t.Fatalf("exchange msgs = %d, want %d", ex.Messages, m.P()*m.Dim())
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

// flowProgram mixes all-port phases, whose messages a processor posts
// out of arrival-time order (the first dimension carries the largest
// payload), with single exchanges and compute that depends on the
// processor, under one span on every processor.
func flowProgram(p *Proc) {
	p.BeginSpan("flows")
	dims := make([]int, p.Dim())
	payloads := make([][]float64, p.Dim())
	for round := 0; round < 3; round++ {
		p.Compute(1 + p.ID()*round)
		for d := range dims {
			dims[d] = d
			payloads[d] = make([]float64, p.Dim()-d+p.ID()%2)
		}
		for _, got := range p.ExchangeAll(dims, 10+round, payloads) {
			p.Recycle(got)
		}
		for d := 0; d < p.Dim(); d++ {
			p.Recycle(p.Exchange(d, 20+round, payloads[(d+round)%p.Dim()]))
		}
	}
	p.EndSpan()
}

// TestChromeTraceFlowsGolden pins the Chrome trace of flowProgram, all
// tracks and two, by SHA-256: which messages the trace draws, and in
// what order, must not change with how the machine records them.
func TestChromeTraceFlowsGolden(t *testing.T) {
	m := MustNew(3, costmodel.CM2().WithAllPorts(true))
	defer m.Close()
	m.EnableProfile(true)
	m.EnableTrace(4096)
	if _, err := m.Run(flowProgram); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		maxProcs int
		sha      string
	}{
		{0, "ca80bb5803e9d6fd48d975c7ce1d8afdf5fd5b1c2c340e7ab0ce21fccbb0227c"},
		{2, "befd567366e8205737f3b7034cfc20a31f0fe1402b585170a181f23bda3e2d0c"},
	} {
		var buf bytes.Buffer
		if err := m.Profile().ChromeTrace(&buf, c.maxProcs); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("maxProcs %d: invalid JSON", c.maxProcs)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sha {
			t.Errorf("maxProcs %d: trace SHA-256 %s, want %s; trace:\n%s", c.maxProcs, got, c.sha, buf.Bytes())
		}
	}
}

// TestProfileSnapshotSurvivesLaterRuns pins what Profile and CritPath
// promise, that the value returned stays valid across later runs: the
// machine reuses its span recorder's tables from run to run, so a
// profile must not share them. The first run's documents must render
// the same bytes after three runs with other span trees.
func TestProfileSnapshotSurvivesLaterRuns(t *testing.T) {
	m := MustNew(3, costmodel.CM2())
	defer m.Close()
	m.EnableProfile(true)
	m.EnableTrace(4096)
	m.EnableCritPath(true)
	if _, err := m.Run(profiledPingPong); err != nil {
		t.Fatal(err)
	}
	pf, cp := m.Profile(), m.CritPath()
	render := func() []byte {
		var buf bytes.Buffer
		if err := pf.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := pf.ChromeTrace(&buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := cp.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render()

	nested := func(p *Proc) {
		for _, name := range []string{"exchange", "outer", "third"} {
			p.BeginSpan(name)
			p.SpanNote("later run")
			p.Compute(3 + p.ID())
		}
		p.Recycle(p.Exchange(0, 5, []float64{1, 2, 3}))
		for range 3 {
			p.EndSpan()
		}
	}
	phases := func(p *Proc) {
		for d := 0; d < p.Dim(); d++ {
			p.BeginSpan(fmt.Sprintf("phase%d", d))
			p.Compute(7 * (d + 1))
			p.Recycle(p.Exchange(d, 30+d, make([]float64, d+2)))
			p.EndSpan()
		}
	}
	for _, body := range []func(*Proc){flowProgram, nested, phases} {
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	if got := render(); !bytes.Equal(got, want) {
		t.Fatalf("the first run's documents changed after later runs:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestChromeTraceArrowsAtTraceLimit checks that the trace limit counts
// only the messages the trace draws. A neighbor of processor 0 sends d
// messages a round, one of them to processor 0, so a limit over all its
// sends kept about limit/d arrows into processor 0 from each neighbor
// beside limit arrows out of it.
func TestChromeTraceArrowsAtTraceLimit(t *testing.T) {
	const limit = 4
	m := MustNew(3, costmodel.CM2())
	defer m.Close()
	m.EnableProfile(true)
	m.EnableTrace(limit)
	if _, err := m.Run(func(p *Proc) {
		p.BeginSpan("rounds")
		for round := 0; round < 2*limit; round++ {
			for d := p.Dim() - 1; d >= 0; d-- {
				p.Recycle(p.Exchange(d, round, []float64{1}))
			}
		}
		p.EndSpan()
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Profile().ChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	starts := map[int]int{} // flow arrows by sending track
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "s" {
			starts[ev.Tid]++
		}
	}
	if want := map[int]int{0: limit, 1: limit, 2: limit, 4: limit}; fmt.Sprint(starts) != fmt.Sprint(want) {
		t.Fatalf("arrows by sending track = %v, want %v", starts, want)
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
