package hypercube

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/obs"
)

func TestCritPathNilWhenDisabled(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	if _, err := m.Run(profiledPingPong); err != nil {
		t.Fatal(err)
	}
	if cp := m.CritPath(); cp != nil {
		t.Fatal("CritPath() non-nil without EnableCritPath")
	}
}

func TestCritPathSumsToMakespan(t *testing.T) {
	for _, params := range []costmodel.Params{costmodel.CM2(), costmodel.IPSC(), costmodel.Ideal()} {
		m := MustNew(3, params)
		m.EnableCritPath(true)
		elapsed, err := m.Run(profiledPingPong)
		if err != nil {
			t.Fatal(err)
		}
		cp := m.CritPath()
		if cp == nil {
			t.Fatal("CritPath() nil after traced run")
		}
		if err := cp.Check(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		// Integer-valued presets: the path weights sum to the makespan
		// bit-exactly, not just within epsilon.
		if cp.Buckets.Total() != elapsed {
			t.Fatalf("path buckets total %g != makespan %g",
				float64(cp.Buckets.Total()), float64(elapsed))
		}
		if cp.Makespan != elapsed {
			t.Fatalf("Makespan = %g, run elapsed %g", float64(cp.Makespan), float64(elapsed))
		}
		if cp.SkewUs != 0 {
			t.Fatalf("skew = %g, want exact 0", cp.SkewUs)
		}
	}
}

// TestCritPathAdoption pins the longest-path recurrence on a 2-proc
// machine: the receiver's makespan is bounded by the sender's chain, so
// the path must hop across the link and carry the sender's compute.
func TestCritPathAdoption(t *testing.T) {
	m := MustNew(1, costmodel.CM2()) // flop 1, startup 100, perword 4
	m.EnableCritPath(true)
	elapsed, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(100)
			p.Send(0, 5, make([]float64, 8))
		} else {
			p.Recycle(p.Recv(0, 5))
			p.Compute(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0: 100 compute + 100 startup + 32 transfer = 232.
	// Proc 1: adopts at arrival 232, then 10 compute = 242.
	if elapsed != 242 {
		t.Fatalf("elapsed = %g, want 242", float64(elapsed))
	}
	cp := m.CritPath()
	if err := cp.Check(); err != nil {
		t.Fatal(err)
	}
	if cp.EndProc != 1 || cp.Hops != 1 {
		t.Fatalf("end proc %d hops %d, want 1 and 1", cp.EndProc, cp.Hops)
	}
	want := struct{ comp, start, xfer, idle float64 }{110, 100, 32, 0}
	got := cp.Buckets
	if float64(got.Compute) != want.comp || float64(got.Startup) != want.start ||
		float64(got.Transfer) != want.xfer || float64(got.Idle) != want.idle {
		t.Fatalf("buckets %+v, want %+v", got, want)
	}
	if len(cp.ByDim) != 1 || float64(cp.ByDim[0]) != 32 {
		t.Fatalf("ByDim = %v, want [32]", cp.ByDim)
	}
	// The chain tail must walk proc 0's work, the hop, then proc 1's
	// compute, in virtual-time order.
	var kinds []string
	for _, sg := range cp.Chain {
		kinds = append(kinds, fmt.Sprintf("%s@%d", sg.Kind, sg.Proc))
	}
	wantKinds := "compute@0 send@0 hop@1 compute@1"
	if strings.Join(kinds, " ") != wantKinds {
		t.Fatalf("chain = %v, want %s", kinds, wantKinds)
	}
	hop := cp.Chain[2]
	if hop.From != 0 || hop.Dim != 0 || hop.T0 != 232 || hop.T1 != 232 {
		t.Fatalf("hop = %+v", hop)
	}
}

// TestCritPathTieKeepsOwnChain: a symmetric exchange arrives exactly at
// the receiver's own clock; the tie must keep the local chain, so no
// hop and no idle appear anywhere.
func TestCritPathTieKeepsOwnChain(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	m.EnableCritPath(true)
	if _, err := m.Run(func(p *Proc) {
		p.Compute(50)
		for d := 0; d < p.Dim(); d++ {
			p.Recycle(p.Exchange(d, 3+d, []float64{1, 2}))
		}
	}); err != nil {
		t.Fatal(err)
	}
	cp := m.CritPath()
	if err := cp.Check(); err != nil {
		t.Fatal(err)
	}
	if cp.Hops != 0 {
		t.Fatalf("hops = %d, want 0 (symmetric arrivals tie and keep the local chain)", cp.Hops)
	}
	if cp.Buckets.Idle != 0 {
		t.Fatalf("idle = %g, want 0", float64(cp.Buckets.Idle))
	}
}

// TestCritPathSpanAttribution runs with spans and checks that the span
// table reproduces the buckets exactly and attributes to the
// ">"-qualified names.
func TestCritPathSpanAttribution(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	m.EnableCritPath(true)
	if _, err := m.Run(profiledPingPong); err != nil {
		t.Fatal(err)
	}
	cp := m.CritPath()
	if err := cp.Check(); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range cp.Spans {
		names[s.Name] = true
	}
	if !names["outer"] && !names["outer>exchange"] {
		t.Fatalf("span attribution %v missing qualified pingpong spans", names)
	}
	for i := 1; i < len(cp.Spans); i++ {
		if cp.Spans[i].Total() > cp.Spans[i-1].Total() {
			t.Fatal("spans not sorted by descending share")
		}
	}
}

// TestCritPathRingTruncation overflows the bounded segment ring and
// checks the aggregate cells stay exact while the tail drops oldest
// first.
func TestCritPathRingTruncation(t *testing.T) {
	m := MustNew(0, costmodel.CM2())
	m.EnableCritPath(true)
	const rounds = 50
	elapsed, err := m.Run(func(p *Proc) {
		for i := 0; i < rounds; i++ {
			// Alternate span identity so consecutive compute segments
			// cannot coalesce into one ring slot.
			if i%2 == 0 {
				p.BeginSpan("a")
			} else {
				p.BeginSpan("b")
			}
			p.Compute(1)
			p.EndSpan()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := m.CritPath()
	if err := cp.Check(); err != nil {
		t.Fatal(err)
	}
	if float64(elapsed) != rounds {
		t.Fatalf("elapsed = %g, want %d", float64(elapsed), rounds)
	}
	if float64(cp.Buckets.Compute) != rounds {
		t.Fatalf("compute = %g: ring truncation must not lose aggregate time", float64(cp.Buckets.Compute))
	}
	if len(cp.Chain) != 32 {
		t.Fatalf("chain tail = %d segments, want the ring capacity 32", len(cp.Chain))
	}
	if cp.ChainDropped != rounds-32 {
		t.Fatalf("dropped = %d, want %d", cp.ChainDropped, rounds-32)
	}
	// Oldest dropped: the tail must cover the run's end.
	if cp.Chain[len(cp.Chain)-1].T1 != elapsed {
		t.Fatalf("tail ends at %g, want %g", float64(cp.Chain[len(cp.Chain)-1].T1), float64(elapsed))
	}
}

// TestCritPathConformance records predictions through SpanPredict and
// checks the report's ratios and flags.
func TestCritPathConformance(t *testing.T) {
	m := MustNew(1, costmodel.CM2())
	m.EnableCritPath(true)
	if _, err := m.Run(func(p *Proc) {
		p.BeginSpan("exact")
		if p.Profiling() {
			p.SpanPredict(100)
		}
		p.Compute(100)
		p.EndSpan()
		p.BeginSpan("divergent")
		if p.Profiling() {
			p.SpanPredict(10)
		}
		p.Compute(100)
		p.EndSpan()
	}); err != nil {
		t.Fatal(err)
	}
	cp := m.CritPath()
	if cp.Threshold != obs.DefaultConformanceThreshold {
		t.Fatalf("threshold = %g, want the obs default", cp.Threshold)
	}
	if len(cp.Conformance) != 2 {
		t.Fatalf("conformance entries = %d, want 2", len(cp.Conformance))
	}
	// Sorted by descending ratio: divergent first.
	div, exact := cp.Conformance[0], cp.Conformance[1]
	if div.Name != "divergent" || exact.Name != "exact" {
		t.Fatalf("order = %q, %q", div.Name, exact.Name)
	}
	if exact.Ratio != 1 || exact.Flagged {
		t.Fatalf("exact entry = %+v, want ratio 1 unflagged", exact)
	}
	if div.Ratio != 10 || !div.Flagged {
		t.Fatalf("divergent entry = %+v, want ratio 10 flagged", div)
	}
	if worst, flagged := cp.WorstConformance(); worst != 10 || flagged != 1 {
		t.Fatalf("WorstConformance = %g, %d", worst, flagged)
	}
}

// TestCritPathSurvivesFailedRun: the post-mortem report embeds the
// chain recorded up to the failure.
func TestCritPathInPostMortem(t *testing.T) {
	m := MustNew(1, costmodel.CM2())
	m.EnableCritPath(true)
	_, err := m.Run(func(p *Proc) {
		p.Compute(10)
		if p.ID() == 0 {
			p.Recv(0, 1) // never sent: deadlock
		}
	})
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not wrap *RunError", err)
	}
	if re.Report.Crit == nil {
		t.Fatal("post-mortem report missing the critical path")
	}
	var buf strings.Builder
	re.Report.WriteText(&buf)
	if !strings.Contains(buf.String(), "critical path:") {
		t.Fatal("post-mortem text does not render the critical path")
	}
}

// TestCritPathJSONStable: the exported document round-trips and carries
// the schema's required keys.
func TestCritPathJSON(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	m.EnableCritPath(true)
	if _, err := m.Run(profiledPingPong); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := m.CritPath().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"dim", "p", "end_proc", "makespan_us", "buckets_us", "hops",
		"skew_us", "transfer_by_dim_us", "spans", "other_us", "chain",
		"chain_dropped", "conformance",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("JSON document missing %q", key)
		}
	}
	conf, ok := doc["conformance"].(map[string]any)
	if !ok {
		t.Fatalf("conformance = %T", doc["conformance"])
	}
	if _, ok := conf["threshold"]; !ok {
		t.Fatal("conformance missing threshold")
	}
}

// TestCritPathDoesNotPerturbClocks: tracing observes the clock, never
// advances it.
func TestCritPathDoesNotPerturbClocks(t *testing.T) {
	run := func(crit bool) costmodel.Time {
		m := MustNew(3, costmodel.CM2())
		m.EnableCritPath(crit)
		elapsed, err := m.Run(profiledPingPong)
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if on, off := run(true), run(false); on != off {
		t.Fatalf("elapsed with tracing %g != without %g", float64(on), float64(off))
	}
}

// TestArmedAbortLeavesNothingBehind: a run that fails with chain
// snapshots in flight (Run drains them back to the machine's chain free
// list) leaves a machine whose next profiled, critical-path run writes
// the documents of a fresh machine byte for byte.
func TestArmedAbortLeavesNothingBehind(t *testing.T) {
	// Uneven compute makes receives adopt their senders' chains, so
	// recycled snapshots end up on the path.
	documents := func(m *Machine) []byte {
		if _, err := m.Run(func(p *Proc) {
			p.BeginSpan("outer")
			p.Compute(10 + 7*p.ID())
			profiledPingPong(p)
			p.EndSpan()
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.CritPath().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := m.Profile().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	armed := func() *Machine {
		m := MustNew(3, costmodel.CM2())
		m.EnableProfile(true)
		m.EnableCritPath(true)
		return m
	}

	m := armed()
	defer m.Close()
	// Every processor sends along every dimension, then processor 5
	// dies before receiving: its neighbors' snapshots stay on its links.
	_, err := m.Run(func(p *Proc) {
		p.BeginSpan("doomed")
		for d := 0; d < p.Dim(); d++ {
			p.BeginSpan(fmt.Sprintf("send%d", d))
			p.Compute(3 + p.ID())
			p.Send(d, 1, []float64{1, 2})
			p.EndSpan()
		}
		if p.ID() == 5 {
			panic("boom")
		}
		for d := 0; d < p.Dim(); d++ {
			p.Recycle(p.Recv(d, 1))
		}
		p.EndSpan()
	})
	var re *RunError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v, want processor 5's panic", err)
	}
	if len(re.Report.Links) == 0 {
		t.Fatal("no message was in flight at the failure")
	}
	if !m.linksEmpty() {
		t.Fatal("links not drained after the failed run")
	}

	fresh := armed()
	defer fresh.Close()
	if got, want := documents(m), documents(fresh); !bytes.Equal(got, want) {
		t.Errorf("documents after the failed run differ from a fresh machine's:\n%s\nwant:\n%s", got, want)
	}
}

// TestCritPathRefusesChainlessMessage: a receive under critical-path
// recording that meets a message without a chain panics by name instead
// of booking the wait as idle: no post of a recording Run leaves one.
func TestCritPathRefusesChainlessMessage(t *testing.T) {
	m := MustNew(1, costmodel.CM2())
	defer m.Close()
	m.EnableCritPath(true)
	var got any
	if _, err := m.Run(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		defer func() { got = recover() }()
		p.cpRecv(&message{arrive: p.clock + 1}, 0)
	}); err != nil {
		t.Fatal(err)
	}
	if got != errChainless {
		t.Fatalf("cpRecv of a chainless message panicked with %v, want %v", got, errChainless)
	}
}
