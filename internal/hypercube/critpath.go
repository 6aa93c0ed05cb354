package hypercube

import (
	"sort"

	"vmprim/internal/costmodel"
	"vmprim/internal/obs"
)

// Critical-path recording: the online computation of the longest
// weighted chain through a run's virtual-time event DAG.
//
// Rather than materializing the DAG and extracting the path afterwards
// (a bounded ring would drop edges and break the "weights sum exactly
// to the makespan" guarantee), every processor carries a
// chain-attribution vector: the decomposition of the longest causal
// chain that ends at its current clock. Local charges (compute, send,
// router, idle) extend the chain in place; every posted message
// carries a snapshot of the sender's vector; and a receive whose
// arrival is strictly later than the receiver's own clock adopts the
// sender's chain wholesale — that is exactly the dynamic-programming
// recurrence for the longest path, evaluated incrementally with O(1)
// state per processor. Ties (arrival equal to the receiver's clock)
// keep the receiver's own chain, which both breaks ties
// deterministically and avoids inventing hops that carry no time.
//
// The vector is a flat []float64 so message snapshots reuse the
// per-processor buffer pools (the same recycle discipline as
// payloads): four category cells that always sum to the clock, hop and
// ring bookkeeping, per-dimension transfer cells, a bounded ring of
// displayable chain segments (the flight-recorder pattern — the
// aggregate cells stay exact when the ring drops old segments), and
// one 4-cell block per discovered span node attributing the chain to
// named spans. Everything is virtual time, so the recorded path is
// bit-identical under every schedule (see TestScheduleIndependence).

const (
	// Category cells: the chain's time split by attribution class.
	// Their sum is an invariant: always exactly the owning processor's
	// clock (buildCritPath reports the residual as SkewUs).
	cpCatCompute  = 0
	cpCatStartup  = 1
	cpCatTransfer = 2
	cpCatIdle     = 3

	// Bookkeeping cells: cross-processor hops on the chain, segments
	// evicted from the ring, live segment count, ring start slot.
	cpHops     = 4
	cpDropped  = 5
	cpSegCount = 6
	cpSegStart = 7

	cpHdrWords = 8

	// The segment ring: cpSegCap slots of cpSegWords cells
	// {proc, node, kind, dim, t0, t1}, oldest overwritten first.
	cpSegCap   = 32
	cpSegWords = 6

	// Segment kinds.
	cpKindCompute = 0
	cpKindSend    = 1
	cpKindRoute   = 2
	cpKindIdle    = 3
	cpKindHop     = 4
)

// cpKindName maps a segment kind to its export name.
func cpKindName(k int) string {
	switch k {
	case cpKindCompute:
		return "compute"
	case cpKindSend:
		return "send"
	case cpKindRoute:
		return "route"
	case cpKindIdle:
		return "idle"
	case cpKindHop:
		return "hop"
	}
	return "?"
}

// cpBase is the first ring cell; cpSpanBase the first span cell. Both
// depend only on the cube dimension.
func (p *Proc) cpBase() int     { return cpHdrWords + p.m.dim }
func (p *Proc) cpSpanBase() int { return p.cpBase() + cpSegCap*cpSegWords }

// cpReset clears the chain vector for a new run, reusing its capacity.
// Zeroing the full capacity matters: the vector's length only grows
// within a run (adoption never shrinks it), so in-run growth via
// append always lands on cells append itself writes.
func (p *Proc) cpReset() {
	base := p.cpSpanBase()
	if cap(p.cp) < base {
		p.cp = make([]float64, base)
		return
	}
	p.cp = p.cp[:cap(p.cp)]
	for i := range p.cp {
		p.cp[i] = 0
	}
	p.cp = p.cp[:base]
}

// cpNode is the innermost open span node, -1 outside any span.
func (p *Proc) cpNode() int {
	if n := len(p.ps.stack); n > 0 {
		return p.ps.stack[n-1].node
	}
	return -1
}

// cpAcc extends the chain by t in category cat, crediting the
// per-dimension transfer cell (dim >= 0) and the innermost span's
// block. Span blocks grow lazily as nodes are discovered — amortized
// allocation-free across runs, like the span recorder itself.
func (p *Proc) cpAcc(cat int, t costmodel.Time, dim int) {
	if t == 0 {
		return
	}
	p.cp[cat] += float64(t)
	if dim >= 0 {
		p.cp[cpHdrWords+dim] += float64(t)
	}
	if node := p.cpNode(); node >= 0 {
		need := p.cpSpanBase() + 4*(node+1)
		for len(p.cp) < need {
			p.cp = append(p.cp, 0)
		}
		p.cp[p.cpSpanBase()+4*node+cat] += float64(t)
	}
}

// cpSeg appends one displayable segment to the bounded ring,
// coalescing a segment that continues the newest one (same processor,
// span, kind and dimension, contiguous in time).
func (p *Proc) cpSeg(kind, dim int, t0, t1 costmodel.Time) {
	node := p.cpNode()
	base := p.cpBase()
	cnt := int(p.cp[cpSegCount])
	if cnt > 0 {
		off := base + ((int(p.cp[cpSegStart])+cnt-1)%cpSegCap)*cpSegWords
		if int(p.cp[off]) == p.id && int(p.cp[off+1]) == node &&
			int(p.cp[off+2]) == kind && int(p.cp[off+3]) == dim &&
			p.cp[off+5] == float64(t0) {
			p.cp[off+5] = float64(t1)
			return
		}
	}
	var slot int
	if cnt == cpSegCap {
		slot = int(p.cp[cpSegStart])
		p.cp[cpSegStart] = float64((slot + 1) % cpSegCap)
		p.cp[cpDropped]++
	} else {
		slot = (int(p.cp[cpSegStart]) + cnt) % cpSegCap
		p.cp[cpSegCount]++
	}
	off := base + slot*cpSegWords
	p.cp[off] = float64(p.id)
	p.cp[off+1] = float64(node)
	p.cp[off+2] = float64(kind)
	p.cp[off+3] = float64(dim)
	p.cp[off+4] = float64(t0)
	p.cp[off+5] = float64(t1)
}

// cpCompute extends the chain by a local-arithmetic charge that just
// advanced the clock by c.
func (p *Proc) cpCompute(c costmodel.Time) {
	if c == 0 {
		return
	}
	p.cpAcc(cpCatCompute, c, -1)
	p.cpSeg(cpKindCompute, -1, p.clock-c, p.clock)
}

// cpChargeSend extends the chain by one message's send cost (start-up
// plus words transfer on dimension d), which the caller just added to
// the clock.
func (p *Proc) cpChargeSend(d, words int) {
	su := p.m.params.CommStartup
	xf := costmodel.Time(words) * p.m.params.CommPerWord
	if su == 0 && xf == 0 {
		return
	}
	p.cpAcc(cpCatStartup, su, -1)
	p.cpAcc(cpCatTransfer, xf, d)
	p.cpSeg(cpKindSend, d, p.clock-su-xf, p.clock)
}

// cpRoute extends the chain by a router charge split into its start-up
// and transfer parts (no cube dimension — router volume is charged at
// the processor, not a single link).
func (p *Proc) cpRoute(su, xf costmodel.Time) {
	if su == 0 && xf == 0 {
		return
	}
	p.cpAcc(cpCatStartup, su, -1)
	p.cpAcc(cpCatTransfer, xf, -1)
	p.cpSeg(cpKindRoute, -1, p.clock-su-xf, p.clock)
}

// cpIdle extends the chain by a clock advance outside a receive
// (public AdvanceTo, or a defensive gap).
func (p *Proc) cpIdle(from, to costmodel.Time) {
	p.cpAcc(cpCatIdle, to-from, -1)
	p.cpSeg(cpKindIdle, -1, from, to)
}

// cpSnapshot copies the chain vector into a pooled buffer; post
// attaches one to every message, and the receiver recycles it — the
// payload discipline exactly.
func (p *Proc) cpSnapshot() []float64 {
	s := p.m.pool.get(len(p.cp))
	copy(s, p.cp)
	return s
}

// cpRestore copies src back over the chain vector (ExchangeAll's
// all-port branch restores the pre-phase chain before charging each
// message), zeroing any cells grown since the snapshot.
func (p *Proc) cpRestore(src []float64) {
	n := copy(p.cp, src)
	for i := n; i < len(p.cp); i++ {
		p.cp[i] = 0
	}
}

// cpRecv resolves the longest-path recurrence at a receive on
// dimension d: an arrival strictly later than the receiver's clock
// means the sender's chain bounds this processor from now on — adopt
// its vector and append the hop. Otherwise the receiver's own chain
// already dominates and nothing changes. The caller advances the clock
// afterwards; adoption keeps the category-sum invariant because the
// snapshot sums exactly to the arrival time.
func (p *Proc) cpRecv(msg *message, d int) {
	if msg.arrive > p.clock {
		if msg.cp != nil {
			for len(p.cp) < len(msg.cp) {
				p.cp = append(p.cp, 0)
			}
			n := copy(p.cp, msg.cp)
			for i := n; i < len(p.cp); i++ {
				p.cp[i] = 0
			}
			p.cp[cpHops]++
			p.cpSeg(cpKindHop, d, msg.arrive, msg.arrive)
		} else {
			// No chain travelled with the message (cannot happen within
			// one machine; defensive): account the gap as idle so the
			// invariant holds.
			p.cpIdle(p.clock, msg.arrive)
		}
	}
	if msg.cp != nil {
		p.m.pool.put(msg.cp)
		msg.cp = nil
	}
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
		n := ps.nodes[i].name
		if par := ps.nodes[i].parent; par >= 0 {
			n = out[par] + ">" + n
		}
		out[i] = n
	}
	return out
}

// buildCritPath decodes the winning processor's chain vector into the
// exported obs.CritPath and assembles the conformance report. It runs
// once per Run after every processor has finished (on failed runs too —
// the post-mortem embeds the chain up to the death).
func (m *Machine) buildCritPath(elapsed costmodel.Time) *obs.CritPath {
	end := 0
	for pid, pr := range m.procs {
		if pr.clock > m.procs[end].clock {
			end = pid
		}
	}
	w := m.procs[end]
	cp := &obs.CritPath{
		Dim: m.dim, P: m.p, EndProc: end, Makespan: elapsed,
		Threshold: obs.DefaultConformanceThreshold,
	}
	if len(w.cp) < cpHdrWords {
		return cp
	}
	cp.Buckets = obs.Buckets{
		Compute:  costmodel.Time(w.cp[cpCatCompute]),
		Startup:  costmodel.Time(w.cp[cpCatStartup]),
		Transfer: costmodel.Time(w.cp[cpCatTransfer]),
		Idle:     costmodel.Time(w.cp[cpCatIdle]),
	}
	cp.Hops = int(w.cp[cpHops])
	cp.ChainDropped = int(w.cp[cpDropped])
	cp.ByDim = make([]costmodel.Time, m.dim)
	for d := 0; d < m.dim; d++ {
		cp.ByDim[d] = costmodel.Time(w.cp[cpHdrWords+d])
	}
	for _, pr := range m.procs {
		if len(pr.cp) < cpHdrWords {
			continue
		}
		s := pr.cp[cpCatCompute] + pr.cp[cpCatStartup] +
			pr.cp[cpCatTransfer] + pr.cp[cpCatIdle] - float64(pr.clock)
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

	base := w.cpBase()
	cnt := int(w.cp[cpSegCount])
	startIdx := int(w.cp[cpSegStart])
	for s := 0; s < cnt; s++ {
		off := base + ((startIdx+s)%cpSegCap)*cpSegWords
		kind := int(w.cp[off+2])
		seg := obs.PathSegment{
			Proc: int(w.cp[off]),
			From: -1,
			Span: name(int(w.cp[off+1])),
			Kind: cpKindName(kind),
			Dim:  int(w.cp[off+3]),
			T0:   costmodel.Time(w.cp[off+4]),
			T1:   costmodel.Time(w.cp[off+5]),
		}
		if kind == cpKindHop && seg.Dim >= 0 {
			seg.From = seg.Proc ^ (1 << seg.Dim)
		}
		cp.Chain = append(cp.Chain, seg)
	}

	spanBase := w.cpSpanBase()
	var attributed obs.Buckets
	for nd := 0; 4*nd+spanBase+3 < len(w.cp); nd++ {
		b := obs.Buckets{
			Compute:  costmodel.Time(w.cp[spanBase+4*nd+cpCatCompute]),
			Startup:  costmodel.Time(w.cp[spanBase+4*nd+cpCatStartup]),
			Transfer: costmodel.Time(w.cp[spanBase+4*nd+cpCatTransfer]),
			Idle:     costmodel.Time(w.cp[spanBase+4*nd+cpCatIdle]),
		}
		if b.Total() == 0 {
			continue
		}
		cp.Spans = append(cp.Spans, obs.PathSpan{Name: name(nd), Buckets: b})
		attributed.Add(b)
	}
	obs.SortSpansByShare(cp.Spans)
	cp.Other = obs.Buckets{
		Compute:  cp.Buckets.Compute - attributed.Compute,
		Startup:  cp.Buckets.Startup - attributed.Startup,
		Transfer: cp.Buckets.Transfer - attributed.Transfer,
		Idle:     cp.Buckets.Idle - attributed.Idle,
	}

	m.buildConformance(cp, w, qual)
	return cp
}

// buildConformance fills cp.Conformance with one entry per span node
// that recorded a cost-model prediction (SpanPredict), comparing the
// slowest processor's measured inclusive time against the slowest
// predicted one. Measured inclusive time absorbs entry skew — a
// member arriving late at a collective shows up in the slowest
// member's wait — which is why the flagging threshold leaves headroom
// (see obs.DefaultConformanceThreshold).
func (m *Machine) buildConformance(cp *obs.CritPath, w *Proc, qual []string) {
	ref := &m.procs[0].ps
	spanBase := w.cpSpanBase()
	for nd := range ref.nodes {
		var maxIncl, maxPred costmodel.Time
		for _, pr := range m.procs {
			if nd >= len(pr.ps.agg) {
				continue
			}
			a := &pr.ps.agg[nd]
			if a.incl > maxIncl {
				maxIncl = a.incl
			}
			if a.pred > maxPred {
				maxPred = a.pred
			}
		}
		count := ref.agg[nd].count
		if maxPred <= 0 || count == 0 {
			continue
		}
		var share float64
		if idx := spanBase + 4*nd; idx+3 < len(w.cp) && cp.Makespan > 0 {
			share = (w.cp[idx] + w.cp[idx+1] + w.cp[idx+2] + w.cp[idx+3]) /
				float64(cp.Makespan)
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
