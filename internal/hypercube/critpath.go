package hypercube

import (
	"errors"
	"sort"

	"vmprim/internal/costmodel"
	"vmprim/internal/obs"
)

// Critical-path recording: the online computation of the longest
// weighted chain through a run's virtual-time event DAG.
//
// Rather than materializing the DAG and extracting the path afterwards
// (a bounded ring would drop edges and break the "weights sum exactly
// to the makespan" guarantee), every processor carries a chain: the
// decomposition of the longest causal chain that ends at its current
// clock. Local charges extend the chain in place; every posted message
// carries a snapshot of the sender's chain; and a receive whose arrival
// is strictly later than the receiver's own clock adopts the sender's
// chain wholesale — that is exactly the dynamic-programming recurrence
// for the longest path, evaluated incrementally with O(1) state per
// processor. Ties (arrival equal to the receiver's clock) keep the
// receiver's own chain, which both breaks ties deterministically and
// avoids inventing hops that carry no time.
//
// A chain is a struct: a clock split (obs.Buckets) that always sums to
// the clock, hop and drop counts, per-dimension transfer cells, a
// bounded ring of displayable chain segments (the flight-recorder
// pattern — the aggregate cells stay exact when the ring drops old
// segments), and one clock split per discovered span node attributing
// the chain to named spans. Snapshots come from the machine's chain
// free list: a sender takes one, the message carries it, and the
// receiver either adopts it (returning its own old chain) or returns
// it. Everything is virtual time, so the recorded path is bit-identical
// under every schedule (see TestScheduleIndependence).
//
// The segment kinds and where they come from: compute (Compute), send
// (Send, SendOwned, SendOwnedParts, ExchangeAll) and route (RoutePhaseCharge) all pass
// Proc.charge and extend the chain through cpCharge; hop is a receive
// adopting the sender's chain (cpRecv). Every message a receive meets
// carries a chain: every processor of a Run shares p.crit, every post
// under it attaches one, and drain empties the links after every Run.
// So no wait is ever unexplained and the machine records no idle
// segment; cpRecv panics on a message without a chain, which breaks
// one of the three. The idle class, the exported idle_us fields and
// obs's idle kind stay, reading zero, so every document keeps its
// shape.

// errChainless is cpRecv's refusal of a message that carries no chain.
var errChainless = errors.New("hypercube: critical path: message received without a chain (every post of a recording Run attaches one, and drain empties the links between Runs)")

// Segment kinds, indexing segKinds.
const (
	cpKindCompute = iota
	cpKindSend
	cpKindRoute
	cpKindHop
)

// segKinds are the export names of the segment kinds.
var segKinds = [...]string{"compute", "send", "route", "hop"}

// chainSeg is one displayable segment of a chain: processor, span node
// (-1 outside any span), kind and dimension (-1 for none), and its
// virtual-time bounds.
type chainSeg struct {
	proc, node, kind, dim int32
	t0, t1                costmodel.Time
}

// chain is one processor's chain-attribution record. cat and every span
// block split time by class; cat always sums to the owning processor's
// clock (buildCritPath reports the residual as SkewUs).
type chain struct {
	cat           obs.Buckets
	hops, dropped int
	byDim         [MaxDim]costmodel.Time
	// segs is the ring of the newest segments: n live ones starting at
	// slot head, the oldest overwritten first.
	segs    [32]chainSeg
	head, n int
	spans   []obs.Buckets
}

// reset clears the chain for a new run, keeping its span capacity.
func (c *chain) reset() { *c = chain{spans: c.spans[:0]} }

// copyFrom overwrites c with src, reusing c's span capacity, so the
// snapshots a machine recycles stop allocating once they have seen a
// run's span count.
func (c *chain) copyFrom(src *chain) {
	spans := c.spans[:0]
	*c = *src
	c.spans = append(spans, src.spans...)
}

// add extends the clock split by t and credits node's span block
// (node >= 0). Span blocks grow lazily as nodes are discovered —
// amortized allocation-free across runs, like the span recorder itself.
func (c *chain) add(node int, t obs.Buckets) {
	c.cat.Add(t)
	if node >= 0 {
		for len(c.spans) <= node {
			c.spans = append(c.spans, obs.Buckets{})
		}
		c.spans[node].Add(t)
	}
}

// seg appends s to the ring, coalescing a segment that continues the
// newest one (same processor, span, kind and dimension, contiguous in
// time).
func (c *chain) seg(s chainSeg) {
	if c.n > 0 {
		last := &c.segs[(c.head+c.n-1)%len(c.segs)]
		if last.proc == s.proc && last.node == s.node && last.kind == s.kind &&
			last.dim == s.dim && last.t1 == s.t0 {
			last.t1 = s.t1
			return
		}
	}
	if c.n == len(c.segs) {
		c.segs[c.head] = s
		c.head = (c.head + 1) % len(c.segs)
		c.dropped++
		return
	}
	c.segs[(c.head+c.n)%len(c.segs)] = s
	c.n++
}

// getChain returns a chain from the machine's free list (or a new one)
// holding a copy of src.
func (m *Machine) getChain(src *chain) *chain {
	var c *chain
	if n := len(m.chains); n > 0 {
		c = m.chains[n-1]
		m.chains = m.chains[:n-1]
	} else {
		c = new(chain)
	}
	c.copyFrom(src)
	return c
}

// putChain returns c, if any, to the machine's free list.
func (m *Machine) putChain(c *chain) {
	if c != nil {
		m.chains = append(m.chains, c)
	}
}

// cpSeg appends a segment of this processor under its innermost open
// span to its chain.
func (p *Proc) cpSeg(node, kind, dim int, t0, t1 costmodel.Time) {
	p.cp.seg(chainSeg{proc: int32(p.id), node: int32(node), kind: int32(kind), dim: int32(dim), t0: t0, t1: t1})
}

// cpCharge extends the chain by a charge that just advanced the clock
// (see Proc.charge): comp, su and xf go to their class cells, xf also
// to dimension dim's transfer cell (dim >= 0), and the whole to one
// segment of the given kind ending at the clock.
func (p *Proc) cpCharge(kind, dim int, comp, su, xf costmodel.Time) {
	if comp == 0 && su == 0 && xf == 0 {
		return
	}
	node, _ := p.openSpan()
	p.cp.add(node, obs.Buckets{Compute: comp, Startup: su, Transfer: xf})
	if dim >= 0 {
		p.cp.byDim[dim] += xf
	}
	p.cpSeg(node, kind, dim, p.clock-comp-su-xf, p.clock)
}

// cpRecv resolves the longest-path recurrence at a receive on
// dimension d: an arrival strictly later than the receiver's clock
// means the sender's chain bounds this processor from now on — adopt
// the message's snapshot and append the hop. Otherwise the receiver's
// own chain already dominates and nothing changes. Either way the
// chain left over goes back to the free list. The caller advances the
// clock afterwards; adoption keeps the class-sum invariant because the
// snapshot sums exactly to the arrival time. A message without a chain
// breaks the invariant of the file comment, and panics (errChainless).
func (p *Proc) cpRecv(msg *message, d int) {
	if msg.cp == nil {
		panic(errChainless)
	}
	if msg.arrive > p.clock {
		node, _ := p.openSpan()
		p.cp, msg.cp = msg.cp, p.cp
		p.cp.hops++
		p.cpSeg(node, cpKindHop, d, msg.arrive, msg.arrive)
	}
	p.m.putChain(msg.cp)
}

// EnableCritPath turns critical-path recording on or off for
// subsequent runs. Like EnableProfile it must be called between runs.
// Recording activates the span machinery too (the path attributes
// itself to spans), but building the full Profile still requires
// EnableProfile. The recorded path is simulated truth: bit-identical
// under every schedule, which TestScheduleIndependence compares.
func (m *Machine) EnableCritPath(on bool) { m.critEnabled = on }

// CritPath returns the critical path of the most recent Run, or nil if
// recording was off. The returned value is a snapshot; it stays valid
// across later runs.
func (m *Machine) CritPath() *obs.CritPath { return m.crit }

// qualSpanNames joins each span node's path from the top level with
// ">" (children always have larger ids than their parents, so one
// forward pass resolves every prefix).
func qualSpanNames(ps *profState) []string {
	out := make([]string, len(ps.nodes))
	for i := range ps.nodes {
		n := ps.nodes[i].Name
		if par := ps.nodes[i].Parent; par >= 0 {
			n = out[par] + ">" + n
		}
		out[i] = n
	}
	return out
}

// buildCritPath decodes the chain of processor end, the one whose clock
// is the makespan, into the exported obs.CritPath and assembles the
// conformance report. It runs once per Run after every processor has
// finished (on failed runs too — the post-mortem embeds the chain up to
// the death).
func (m *Machine) buildCritPath(end int) *obs.CritPath {
	w := m.procs[end]
	c := w.cp
	cp := &obs.CritPath{
		Dim: m.dim, P: m.p, EndProc: end, Makespan: m.elapsed,
		Threshold:    obs.DefaultConformanceThreshold,
		Buckets:      c.cat,
		Hops:         c.hops,
		ChainDropped: c.dropped,
		ByDim:        append(make([]costmodel.Time, 0, m.dim), c.byDim[:m.dim]...),
	}
	for _, pr := range m.procs {
		s := float64(pr.cp.cat.Total() - pr.clock)
		if s < 0 {
			s = -s
		}
		if s > cp.SkewUs {
			cp.SkewUs = s
		}
	}

	qual := qualSpanNames(&w.ps)
	name := func(node int) string {
		if node >= 0 && node < len(qual) {
			return qual[node]
		}
		return ""
	}

	for i := 0; i < c.n; i++ {
		s := &c.segs[(c.head+i)%len(c.segs)]
		seg := obs.PathSegment{
			Proc: int(s.proc), From: -1, Span: name(int(s.node)),
			Kind: segKinds[s.kind], Dim: int(s.dim), T0: s.t0, T1: s.t1,
		}
		if s.kind == cpKindHop && s.dim >= 0 {
			seg.From = seg.Proc ^ (1 << seg.Dim)
		}
		cp.Chain = append(cp.Chain, seg)
	}

	var attributed obs.Buckets
	for nd, b := range c.spans {
		if b.Total() == 0 {
			continue
		}
		cp.Spans = append(cp.Spans, obs.PathSpan{Name: name(nd), Buckets: b})
		attributed.Add(b)
	}
	obs.SortSpansByShare(cp.Spans)
	cp.Other = cp.Buckets.Since(attributed)

	m.buildConformance(cp, c, qual)
	return cp
}

// buildConformance fills cp.Conformance with one entry per span node
// that recorded a cost-model prediction (SpanPredict), comparing the
// slowest processor's measured inclusive time against the slowest
// predicted one. Measured inclusive time absorbs entry skew — a
// member arriving late at a collective shows up in the slowest
// member's wait — which is why the flagging threshold leaves headroom
// (see obs.DefaultConformanceThreshold).
func (m *Machine) buildConformance(cp *obs.CritPath, c *chain, qual []string) {
	ref := &m.procs[0].ps
	for nd := range ref.nodes {
		var maxIncl, maxPred costmodel.Time
		for _, pr := range m.procs {
			if nd >= len(pr.ps.agg) {
				continue
			}
			a := &pr.ps.agg[nd]
			if a.Incl > maxIncl {
				maxIncl = a.Incl
			}
			if a.Pred > maxPred {
				maxPred = a.Pred
			}
		}
		count := ref.agg[nd].Count
		if maxPred <= 0 || count == 0 {
			continue
		}
		var share float64
		if nd < len(c.spans) && cp.Makespan > 0 {
			share = float64(c.spans[nd].Total()) / float64(cp.Makespan)
		}
		name := ""
		if nd < len(qual) {
			name = qual[nd]
		}
		ratio := float64(maxIncl) / float64(maxPred)
		cp.Conformance = append(cp.Conformance, obs.ConformanceEntry{
			Name:        name,
			Count:       count,
			MeasuredUs:  float64(maxIncl) / float64(count),
			PredictedUs: float64(maxPred) / float64(count),
			Ratio:       ratio,
			PathShare:   share,
			Flagged:     ratio > cp.Threshold,
		})
	}
	sort.SliceStable(cp.Conformance, func(i, j int) bool {
		if cp.Conformance[i].Ratio != cp.Conformance[j].Ratio {
			return cp.Conformance[i].Ratio > cp.Conformance[j].Ratio
		}
		return cp.Conformance[i].Name < cp.Conformance[j].Name
	})
}
