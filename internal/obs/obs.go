// Package obs is the virtual-time observability layer of the
// simulator: hierarchical spans over the SPMD program, per-processor
// attribution of the virtual clock into compute / start-up / transfer
// / idle buckets, per-link word loads, and exporters for a text tree,
// machine-readable JSON, and Chrome trace-event JSON.
//
// The package is deliberately passive: internal/hypercube records the
// raw per-processor data during a Run (span aggregates, bucket
// accumulators, link counters) and hands it to Build, which verifies
// the SPMD symmetry of the span structure and assembles a Profile.
// obs depends only on internal/costmodel, so every layer above the
// machine can import it without cycles.
//
// # Attribution model
//
// Every processor's virtual clock is decomposed into the four disjoint
// classes of Buckets. Compute is time spent in local arithmetic
// (Proc.Compute). Startup is the fixed per-message cost tau
// (CommStartup, and the router's RouteStartup plus per-message
// handling). Transfer is the per-word volume cost (n*CommPerWord,
// n*RoutePerWord). Idle is everything else: time the clock was advanced
// waiting for a message that had not yet arrived. Idle is derived as
// clock minus the other three (Buckets.WithIdle), which makes the
// reconciliation "bucket sums equal the final clock" exact by
// construction; with the integer-valued parameter presets every sum is
// exact in float64, so the identity holds digit-for-digit. Beside its
// clock, every processor counts messages, words and flops in a Counts.
//
// Buckets and Counts are the one record of what a processor measures.
// The machine's run totals (hypercube.Stats is Counts), the span
// recorder's snapshots and deltas, the critical-path chain and the
// post-mortem all hold these two types, so a new counter is one new
// field.
//
// # Span model
//
// Spans are SPMD-symmetric: every processor opens and closes the same
// spans in the same order, so the tree structure (names, nesting,
// counts) is recorded once per run while the timings are recorded per
// processor and aggregated. A span's inclusive time is the virtual
// time between BeginSpan and EndSpan summed over all its occurrences;
// exclusive time subtracts the inclusive time of its children.
// Reported times are per-processor means (sums divided by P), so the
// root of the tree reads as the familiar elapsed-time scale.
package obs

import (
	"fmt"

	"vmprim/internal/costmodel"
)

// Buckets splits a stretch of virtual time into the four attribution
// classes. All fields are simulated microseconds.
type Buckets struct {
	// Compute is time spent in local floating-point arithmetic.
	Compute costmodel.Time `json:"compute_us"`
	// Startup is fixed per-message cost: communication start-up tau
	// and the router's start-up and per-message handling overhead.
	Startup costmodel.Time `json:"startup_us"`
	// Transfer is per-word volume cost on cube edges and in the router.
	Transfer costmodel.Time `json:"transfer_us"`
	// Idle is time spent waiting for messages: the clock advance of a
	// Recv beyond the receiver's own activity.
	Idle costmodel.Time `json:"idle_us"`
}

// Total returns the sum of all four buckets.
func (b Buckets) Total() costmodel.Time {
	return b.Compute + b.Startup + b.Transfer + b.Idle
}

// Add accumulates o into b.
func (b *Buckets) Add(o Buckets) {
	b.Compute += o.Compute
	b.Startup += o.Startup
	b.Transfer += o.Transfer
	b.Idle += o.Idle
}

// Since returns what b accumulated after the snapshot then.
func (b Buckets) Since(then Buckets) Buckets {
	return Buckets{
		Compute:  b.Compute - then.Compute,
		Startup:  b.Startup - then.Startup,
		Transfer: b.Transfer - then.Transfer,
		Idle:     b.Idle - then.Idle,
	}
}

// WithIdle returns b with Idle derived as total minus the other three
// classes, so that the four sum to total.
func (b Buckets) WithIdle(total costmodel.Time) Buckets {
	b.Idle = total - b.Compute - b.Startup - b.Transfer
	return b
}

// below reports whether any class of b is below x.
func (b Buckets) below(x costmodel.Time) bool {
	return b.Compute < x || b.Startup < x || b.Transfer < x || b.Idle < x
}

// Counts is what a processor counts beside its clock: link messages
// sent, words posted on links and local floating-point operations.
// hypercube.Stats is this type.
type Counts struct {
	// Messages is the number of link messages sent.
	Messages int64
	// Words is the number of 64-bit words transferred over links.
	Words int64
	// Flops is the number of local floating-point operations.
	Flops int64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Messages += o.Messages
	c.Words += o.Words
	c.Flops += o.Flops
}

// Since returns what c counted after the snapshot then.
func (c Counts) Since(then Counts) Counts {
	return Counts{
		Messages: c.Messages - then.Messages,
		Words:    c.Words - then.Words,
		Flops:    c.Flops - then.Flops,
	}
}

// NodeMeta is the structural description of one span node (a unique
// path in the span tree), identical on every processor.
type NodeMeta struct {
	// Name is the span name passed to BeginSpan.
	Name string
	// Parent is the node id of the enclosing span, or -1 at top level.
	Parent int
	// Note holds embedding-change and other annotations attached with
	// SpanNote; only processor 0 records notes.
	Note string
}

// NodeStats is one processor's aggregate over all occurrences of one
// span node.
type NodeStats struct {
	// Count is how many times this processor executed the span.
	Count int64
	// Incl is the summed inclusive virtual time; Excl subtracts the
	// inclusive time of child spans.
	Incl, Excl costmodel.Time
	// Pred is the cost model's predicted time accumulated with
	// SpanPredict (zero for spans that record no prediction).
	Pred costmodel.Time
	// Buckets holds the inclusive compute, start-up and transfer
	// deltas; Build derives idle from Incl.
	Buckets
	// Counts holds the inclusive counter deltas.
	Counts
}

// Instance is one timed occurrence of a span on one processor, kept
// only for the processors exported to the Chrome trace.
type Instance struct {
	// Node is the span node id (index into the meta table).
	Node int
	// Begin and End are the processor's virtual clock at BeginSpan and
	// EndSpan.
	Begin, End costmodel.Time
}

// ProcData is everything one processor recorded during a Run.
type ProcData struct {
	// Clock is the processor's final virtual time.
	Clock costmodel.Time
	// Buckets holds the whole-run compute, start-up and transfer
	// accumulators; Build derives idle from Clock.
	Buckets
	// Counts holds the whole-run counters.
	Counts
	// Meta is the span structure this processor discovered; Build
	// verifies it is identical to processor 0's. Build reads Meta and
	// Stats but keeps neither, so a producer may hand over its own.
	Meta []NodeMeta
	// Stats are the per-node aggregates, indexed like Meta.
	Stats []NodeStats
	// Instances is the per-occurrence log (only exported
	// processors keep one; empty elsewhere). The Profile keeps it.
	Instances []Instance
}

// LinkEvent is one link message, drawn as a Chrome-trace flow arrow.
type LinkEvent struct {
	// Time is the virtual arrival time of the message.
	Time costmodel.Time
	// Src and Dst are the endpoint processor addresses, Dim the cube
	// dimension of the link, Words the payload length, Tag the
	// protocol tag.
	Src, Dst, Dim, Words, Tag int
}

// LinkLoad is the total words carried by one directed link over a Run.
type LinkLoad struct {
	Src   int   `json:"src"`
	Dim   int   `json:"dim"`
	Dst   int   `json:"dst"`
	Words int64 `json:"words"`
}

// Span is one node of the aggregated span tree.
type Span struct {
	// Name is the span name; Note carries annotations (embedding
	// changes and the like) joined with "; ".
	Name string
	Note string
	// Count is the number of occurrences (per processor; all
	// processors execute every span the same number of times).
	Count int64
	// Incl and Excl are inclusive/exclusive virtual time summed over
	// all processors and occurrences (divide by P for the mean).
	Incl, Excl costmodel.Time
	// MaxIncl is the largest single-processor inclusive sum: the load
	// of the slowest processor in this span.
	MaxIncl costmodel.Time
	// Pred is the cost model's predicted time summed over processors
	// (zero for spans without predictions); MaxPred is the largest
	// single-processor sum, which the conformance report compares
	// against MaxIncl.
	Pred, MaxPred costmodel.Time
	// Buckets attributes the inclusive time (summed over processors).
	Buckets Buckets
	// Counts holds the inclusive counter deltas summed over processors.
	Counts
	// Children are the nested spans in first-seen order.
	Children []*Span
}

// procInstances pairs a processor id with its instance log.
type procInstances struct {
	proc int
	inst []Instance
}

// Profile is the aggregated observability record of one Run.
type Profile struct {
	// Dim and P describe the machine; Elapsed is the run's simulated
	// time (maximum clock).
	Dim, P  int
	Elapsed costmodel.Time
	// Counts holds the whole-run machine totals.
	Counts
	// Clocks holds every processor's final virtual clock.
	Clocks []costmodel.Time
	// ProcTotals holds every processor's whole-run bucket split; the
	// four buckets of ProcTotals[i] sum to Clocks[i].
	ProcTotals []Buckets
	// Root is the span tree. Its name is "run", its inclusive time is
	// the sum of all processor clocks, and its exclusive time is
	// whatever ran outside any span.
	Root *Span
	// Links lists the busiest directed links, sorted by descending
	// word count.
	Links []LinkLoad
	// Events are the messages the Chrome exporter draws as flow arrows,
	// those on processor 0's links, by arrival time (empty unless the
	// machine had EnableTrace set).
	Events []LinkEvent
	// Crit is the run's critical path, or nil when the producer did
	// not record one. It is pure virtual time: all three exporters
	// include it and determinism comparisons cover it.
	Crit *CritPath

	nodes []*Span
	inst  []procInstances
}

// Build assembles a Profile from per-processor records; links must
// arrive hottest first, as Profile.Links lists them. It panics if the
// span structure diverges between processors — SPMD programs must open
// and close the same spans in the same order everywhere.
func Build(dim int, procs []ProcData, events []LinkEvent, links []LinkLoad) *Profile {
	p := len(procs)
	if p == 0 {
		panic("obs: Build needs at least one processor")
	}
	ref := procs[0].Meta
	for pid := 1; pid < p; pid++ {
		meta := procs[pid].Meta
		if len(meta) != len(ref) {
			panic(fmt.Sprintf(
				"obs: processor %d recorded %d distinct spans, processor 0 recorded %d: SPMD span structure diverged",
				pid, len(meta), len(ref)))
		}
		for i := range meta {
			if meta[i].Name != ref[i].Name || meta[i].Parent != ref[i].Parent {
				panic(fmt.Sprintf(
					"obs: processor %d span node %d is %q (parent %d), processor 0 recorded %q (parent %d): SPMD span structure diverged",
					pid, i, meta[i].Name, meta[i].Parent, ref[i].Name, ref[i].Parent))
			}
		}
	}

	nodes := make([]*Span, len(ref))
	for i := range ref {
		nodes[i] = &Span{Name: ref[i].Name, Note: ref[i].Note}
	}
	root := &Span{Name: "run", Count: 1}
	for i := range ref {
		par := root
		if ref[i].Parent >= 0 {
			par = nodes[ref[i].Parent]
		}
		par.Children = append(par.Children, nodes[i])
	}

	pf := &Profile{
		Dim:        dim,
		P:          p,
		Clocks:     make([]costmodel.Time, p),
		ProcTotals: make([]Buckets, p),
		Root:       root,
		Links:      links,
		Events:     events,
		nodes:      nodes,
	}
	for pid := range procs {
		pd := &procs[pid]
		pf.Clocks[pid] = pd.Clock
		pf.ProcTotals[pid] = pd.Buckets.WithIdle(pd.Clock)
		if pd.Clock > pf.Elapsed {
			pf.Elapsed = pd.Clock
		}
		pf.Counts.Add(pd.Counts)

		var topIncl costmodel.Time
		for i := range pd.Stats {
			st := &pd.Stats[i]
			nd := nodes[i]
			if pid == 0 {
				nd.Count = st.Count
			} else if st.Count != nd.Count {
				panic(fmt.Sprintf(
					"obs: processor %d executed span %q %d times, processor 0 executed it %d times: SPMD span structure diverged",
					pid, nd.Name, st.Count, nd.Count))
			}
			nd.Incl += st.Incl
			nd.Excl += st.Excl
			nd.Buckets.Add(st.Buckets.WithIdle(st.Incl))
			nd.Counts.Add(st.Counts)
			if st.Incl > nd.MaxIncl {
				nd.MaxIncl = st.Incl
			}
			nd.Pred += st.Pred
			if st.Pred > nd.MaxPred {
				nd.MaxPred = st.Pred
			}
			if ref[i].Parent < 0 {
				topIncl += st.Incl
			}
		}
		root.Incl += pd.Clock
		root.Excl += pd.Clock - topIncl
		root.Buckets.Add(pf.ProcTotals[pid])
		if len(pd.Instances) > 0 {
			pf.inst = append(pf.inst, procInstances{proc: pid, inst: pd.Instances})
		}
	}
	root.MaxIncl = pf.Elapsed
	root.Counts = pf.Counts
	return pf
}

// BucketSkew returns the largest absolute difference, over all
// processors, between the processor's final clock and the sum of its
// four buckets. With the built-in (integer-valued) parameter presets
// it is exactly zero.
func (pf *Profile) BucketSkew() costmodel.Time {
	var skew costmodel.Time
	for i := range pf.ProcTotals {
		d := pf.ProcTotals[i].Total() - pf.Clocks[i]
		if d < 0 {
			d = -d
		}
		if d > skew {
			skew = d
		}
	}
	return skew
}

// Check verifies the profile's structural invariants: bucket sums
// equal the final clock on every processor, and on every span node
// the inclusive time is at least the inclusive (and exclusive) time
// of its children and no bucket is negative. It returns the first
// violation found, or nil.
func (pf *Profile) Check() error {
	const eps = 1e-6
	if len(pf.Clocks) != pf.P || len(pf.ProcTotals) != pf.P {
		return fmt.Errorf("obs: profile has %d clocks / %d totals for %d processors",
			len(pf.Clocks), len(pf.ProcTotals), pf.P)
	}
	for i := range pf.ProcTotals {
		d := pf.ProcTotals[i].Total() - pf.Clocks[i]
		if d < -eps || d > eps {
			return fmt.Errorf("obs: processor %d buckets sum to %.6f but clock is %.6f",
				i, float64(pf.ProcTotals[i].Total()), float64(pf.Clocks[i]))
		}
	}
	var walk func(s *Span) error
	walk = func(s *Span) error {
		var childIncl, childExcl costmodel.Time
		for _, c := range s.Children {
			childIncl += c.Incl
			childExcl += c.Excl
			if err := walk(c); err != nil {
				return err
			}
		}
		if s.Excl < -eps {
			return fmt.Errorf("obs: span %q has negative exclusive time %.6f", s.Name, float64(s.Excl))
		}
		if childIncl > s.Incl+eps {
			return fmt.Errorf("obs: span %q inclusive %.6f < children inclusive %.6f",
				s.Name, float64(s.Incl), float64(childIncl))
		}
		if childExcl > s.Incl+eps {
			return fmt.Errorf("obs: span %q inclusive %.6f < children exclusive %.6f",
				s.Name, float64(s.Incl), float64(childExcl))
		}
		if s.Buckets.below(-eps) {
			return fmt.Errorf("obs: span %q has a negative bucket: %+v", s.Name, s.Buckets)
		}
		return nil
	}
	return walk(pf.Root)
}
