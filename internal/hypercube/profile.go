package hypercube

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"vmprim/internal/costmodel"
	"vmprim/internal/obs"
)

// Virtual-time profiling: hierarchical spans over the SPMD program and
// per-processor attribution of the clock into compute / start-up /
// transfer / idle buckets. The bucket and per-link counters are always
// on (a handful of float/int adds per operation); the span machinery
// activates only under EnableProfile, so the hot paths stay
// allocation-free when profiling is off and the simulated times are
// bit-identical either way — spans observe the clock, never advance
// it.

// profInstProc reports whether a processor keeps a full
// per-occurrence span log for the Chrome-trace exporter: processor 0
// and each of its neighbors (the powers of two), so that every cube
// dimension's traffic at processor 0 has both endpoints exported and
// shows up as a flow arrow. Aggregates are kept on every processor;
// the occurrence logs are the expensive part (O(spans) each), so only
// these dim+1 tracks pay for them.
func profInstProc(id int) bool { return id&(id-1) == 0 }

// spanFrame is one open span on a processor's span stack.
type spanFrame struct {
	node  int
	begin costmodel.Time
	// Snapshots of the clock split and the counters at BeginSpan;
	// EndSpan turns them into inclusive deltas.
	split  obs.Buckets
	counts obs.Counts
	// childIncl accumulates the inclusive time of completed direct
	// children, giving the exclusive time without a second pass.
	childIncl costmodel.Time
}

// profState is a processor's span recorder, reset by every Run. nodes
// and agg, indexed by node id, are the discovered span-tree nodes — a
// node is a unique (Parent, Name) path, and SPMD symmetry makes every
// processor discover the same nodes in the same order — and this
// processor's aggregate over all occurrences of each. Pred accumulates
// the cost model's predicted time recorded with SpanPredict; the
// conformance report compares it against Incl.
type profState struct {
	nodes []obs.NodeMeta
	agg   []obs.NodeStats
	stack []spanFrame
	inst  []obs.Instance
}

func (ps *profState) reset() {
	ps.nodes = ps.nodes[:0]
	ps.agg = ps.agg[:0]
	ps.stack = ps.stack[:0]
	ps.inst = ps.inst[:0]
}

// findOrAddNode resolves name under parent (-1 for top level),
// appending a new node on first sight. A node's id is larger than its
// parent's, so the scan starts after the parent.
func (ps *profState) findOrAddNode(parent int, name string) int {
	for id := parent + 1; id < len(ps.nodes); id++ {
		if ps.nodes[id].Parent == parent && ps.nodes[id].Name == name {
			return id
		}
	}
	ps.nodes = append(ps.nodes, obs.NodeMeta{Name: name, Parent: parent})
	ps.agg = append(ps.agg, obs.NodeStats{})
	return len(ps.nodes) - 1
}

// Profiling reports whether span recording is active for the current
// run. Use it to guard annotation work (string building for SpanNote)
// that would otherwise run with profiling off.
func (p *Proc) Profiling() bool { return p.prof }

// BeginSpan opens a named span on this processor's span stack. Spans
// nest and must be closed in LIFO order with EndSpan before the SPMD
// body returns. The SPMD contract applies: every processor must open
// and close the same spans in the same order, so the span tree is
// recorded once per run while the timings are aggregated over
// processors. A no-op unless the machine's EnableProfile is set.
func (p *Proc) BeginSpan(name string) {
	if !p.prof {
		return
	}
	ps := &p.ps
	parent := -1
	if n := len(ps.stack); n > 0 {
		parent = ps.stack[n-1].node
	}
	node := ps.findOrAddNode(parent, name)
	if p.stream != nil {
		p.emitSpanOpen(name, len(ps.stack))
	}
	ps.stack = append(ps.stack, spanFrame{
		node:   node,
		begin:  p.clock,
		split:  p.split(),
		counts: p.counts,
	})
}

// EndSpan closes the innermost open span, recording its inclusive and
// exclusive virtual time, bucket deltas and counter deltas. It panics
// if no span is open — an unbalanced Begin/End pair is a program bug.
func (p *Proc) EndSpan() {
	if !p.prof {
		return
	}
	ps := &p.ps
	n := len(ps.stack)
	if n == 0 {
		panic("hypercube: EndSpan without matching BeginSpan")
	}
	f := &ps.stack[n-1]
	incl := p.clock - f.begin
	a := &ps.agg[f.node]
	a.Count++
	a.Incl += incl
	a.Excl += incl - f.childIncl
	a.Buckets.Add(p.split().Since(f.split))
	a.Counts.Add(p.counts.Since(f.counts))
	if profInstProc(p.id) {
		ps.inst = append(ps.inst, obs.Instance{Node: f.node, Begin: f.begin, End: p.clock})
	}
	if p.stream != nil {
		p.emitSpanClose(ps.nodes[f.node].Name, n-1)
	}
	ps.stack = ps.stack[:n-1]
	if n > 1 {
		ps.stack[n-2].childIncl += incl
	}
}

// SpanPredict records the cost model's analytic prediction for the
// innermost open span's current occurrence (see costmodel.Predict*).
// Collectives call it right after entry, when the step count and
// payload size are known; the critical-path tracer's conformance
// report compares the accumulated predictions against the measured
// inclusive times. Guard the prediction arithmetic at the call site
// with Profiling(). A no-op when span recording is off or no span is
// open.
func (p *Proc) SpanPredict(t costmodel.Time) {
	if !p.prof {
		return
	}
	n := len(p.ps.stack)
	if n == 0 {
		return
	}
	p.ps.agg[p.ps.stack[n-1].node].Pred += t
}

// SpanNote attaches an annotation (an embedding change, a chosen
// algorithm variant, ...) to the innermost open span's tree node.
// Notes are recorded on processor 0 only and deduplicated; guard any
// string building at the call site with Profiling(). A no-op when
// profiling is off or no span is open.
func (p *Proc) SpanNote(note string) {
	if !p.prof || p.id != 0 {
		return
	}
	n := len(p.ps.stack)
	if n == 0 {
		return
	}
	nd := &p.ps.nodes[p.ps.stack[n-1].node]
	switch {
	case nd.Note == "":
		nd.Note = note
	case !strings.Contains(nd.Note, note):
		nd.Note += "; " + note
	}
}

// checkSpansClosed panics if the SPMD body returned with spans still
// open; runBody calls it so the mismatch surfaces as a Run error
// naming the processor.
func (p *Proc) checkSpansClosed() {
	if !p.prof {
		return
	}
	if n := len(p.ps.stack); n > 0 {
		name := p.ps.nodes[p.ps.stack[n-1].node].Name
		panic(fmt.Sprintf(
			"hypercube: %d span(s) left open at end of run (innermost %q): BeginSpan without matching EndSpan",
			n, name))
	}
}

// EnableProfile turns span recording on or off for subsequent runs.
// Like EnableTrace it must be called between runs, not during one.
// The per-processor clock buckets and per-link word counters are
// always on; EnableProfile only controls the span tree (and therefore
// whether Profile returns a value). For Chrome-trace flow arrows,
// also call EnableTrace.
func (m *Machine) EnableProfile(on bool) { m.profEnabled = on }

// EnableTrace records, in subsequent profiled runs, the messages the
// Chrome-trace exporter draws as flow arrows, keeping at most limit per
// sender (0 disables). Arrows join processor 0 and its neighbors (see
// profInstProc), and every message between two of them crosses one of
// processor 0's links, so only those messages are recorded: processor
// 0's sends and its neighbors' sends to it. A run without EnableProfile
// records nothing. Like EnableProfile it must be called between runs,
// never during one.
func (m *Machine) EnableTrace(limit int) { m.traceLimit = limit }

// Profile returns the profile of the most recent Run, or nil if
// profiling was off or the run failed. The returned value is a
// snapshot; it stays valid across later runs.
func (m *Machine) Profile() *obs.Profile { return m.profile }

// buildProfile assembles the obs.Profile after a successful profiled
// run. obs.Build only reads the span tables, so they are handed over
// as they are; the instance logs end up in the Profile, which must
// outlive the next run, so those are copied.
func (m *Machine) buildProfile() *obs.Profile {
	procs := make([]obs.ProcData, m.p)
	for pid, pr := range m.procs {
		ps := &pr.ps
		procs[pid] = obs.ProcData{
			Clock: pr.clock, Buckets: pr.split(), Counts: pr.counts,
			Meta: ps.nodes, Stats: ps.agg,
		}
		if len(ps.inst) > 0 {
			procs[pid].Instances = append([]obs.Instance(nil), ps.inst...)
		}
	}
	return obs.Build(m.dim, procs, m.flowEvents(), m.linkLoads(0))
}

// flowEvents gathers the messages recorded under EnableTrace in address
// order and sorts them stably by arrival time, so ties stay ordered by
// source address and then by the order the source posted them. A
// processor's own record need not be in time order: under the all-port
// model ExchangeAll posts each message at the phase start plus that
// message's own cost.
func (m *Machine) flowEvents() []obs.LinkEvent {
	var events []obs.LinkEvent
	for _, pr := range m.procs {
		events = append(events, pr.trace...)
	}
	slices.SortStableFunc(events, func(a, b obs.LinkEvent) int { return cmp.Compare(a.Time, b.Time) })
	return events
}

// linkLoads lists the nonzero directed-link word counts of the most
// recent run, hottest first; k > 0 truncates to the top k.
func (m *Machine) linkLoads(k int) []obs.LinkLoad {
	var loads []obs.LinkLoad
	for pid, pr := range m.procs {
		for d, w := range pr.linkWords {
			if w > 0 {
				loads = append(loads, obs.LinkLoad{
					Src: pid, Dim: d, Dst: pid ^ (1 << d), Words: w,
				})
			}
		}
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Words != loads[j].Words {
			return loads[i].Words > loads[j].Words
		}
		if loads[i].Src != loads[j].Src {
			return loads[i].Src < loads[j].Src
		}
		return loads[i].Dim < loads[j].Dim
	})
	if k > 0 && len(loads) > k {
		loads = loads[:k]
	}
	return loads
}

// Congestion returns the k busiest directed links of the most recent
// run (all nonzero links if k <= 0), hottest first. It reads the
// always-on per-link word counters, so it works whether or not
// tracing or profiling was enabled.
func (m *Machine) Congestion(k int) []obs.LinkLoad { return m.linkLoads(k) }
