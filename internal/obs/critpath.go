package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"vmprim/internal/costmodel"
)

// Critical-path attribution: while the profiler's buckets say where
// each processor's clock went, the critical path says why the run's
// makespan is what it is — the single causal chain of compute
// segments, message charges and cross-processor hops whose weights sum
// exactly to the maximum clock. The machine records the chain online
// during the run (see internal/hypercube/critpath.go) and decodes it
// into this structure; obs only models and renders it.

// DefaultConformanceThreshold flags a conformance entry when the
// measured inclusive time of the slowest processor exceeds the cost
// model's prediction by more than this factor. The structured
// collectives land near 1.0 when every member enters together; the
// measured number also absorbs entry skew (a member arriving late
// inflates the slowest member's inclusive time), so the threshold
// leaves 2x of headroom before calling a span divergent. E3's
// hot-spot router runs blow far past it — that gap is the paper's
// router-vs-primitives argument as a per-run measurement.
const DefaultConformanceThreshold = 2.0

// PathSpan attributes the critical path's time to one span (one named
// node of the span tree, qualified as "parent>child").
type PathSpan struct {
	// Name is the ">"-joined path of span names from the top level.
	Name string
	// Buckets is the portion of each attribution class that the chain
	// spent inside this span.
	Buckets Buckets
}

// Total is the span's total time on the critical path.
func (s PathSpan) Total() costmodel.Time { return s.Buckets.Total() }

// PathSegment is one step of the critical chain's bounded tail. The
// machine keeps only the newest segments (a fixed ring, like the
// flight recorder), so the tail shows how the run ended; the Spans
// aggregation covers the whole path exactly.
type PathSegment struct {
	// Proc is the processor whose activity this segment is; for "hop"
	// segments it is the receiver and From is the sender.
	Proc int
	// From is the sending processor of a "hop" segment, -1 otherwise.
	From int
	// Span is the ">"-qualified span the segment ran under ("" if
	// outside any span).
	Span string
	// Kind is "compute", "send" (start-up plus transfer of one
	// message), "route" (router charges), "idle" (clock advanced
	// outside a receive; the hypercube machine records none), or
	// "hop" (the chain crossing a link).
	Kind string
	// Dim is the cube dimension for send and hop segments, -1 otherwise.
	Dim int
	// T0 and T1 bound the segment in virtual time (equal for hops).
	T0, T1 costmodel.Time
}

// ConformanceEntry compares one span's measured virtual time against
// the cost model's analytic prediction recorded at the span's entry
// (see costmodel.Predict*).
type ConformanceEntry struct {
	// Name is the ">"-qualified span name.
	Name string
	// Count is the number of occurrences per processor.
	Count int64
	// MeasuredUs is the slowest processor's mean inclusive time per
	// occurrence; PredictedUs is that processor's mean predicted time.
	MeasuredUs, PredictedUs float64
	// Ratio is measured over predicted (the conformance factor).
	Ratio float64
	// PathShare is the fraction of the run's makespan the critical
	// path spent inside this span (0 when the span is off the path).
	PathShare float64
	// Flagged reports Ratio > the report's threshold.
	Flagged bool
}

// CritPath is the decoded critical path of one Run: the longest
// weighted chain through the virtual-time event DAG, ending at the
// processor whose clock is the run's makespan.
type CritPath struct {
	// Dim and P describe the machine; EndProc is where the path ends
	// (the maximum-clock processor, lowest id on ties).
	Dim, P, EndProc int
	// Makespan is the run's elapsed virtual time; the four Buckets sum
	// to it exactly.
	Makespan costmodel.Time
	// Buckets attributes the whole path by class.
	Buckets Buckets
	// Hops is the number of cross-processor edges on the path.
	Hops int
	// ByDim splits the path's transfer time by cube dimension
	// (router volume charges carry no dimension and are excluded).
	ByDim []costmodel.Time
	// Spans attributes the path to named spans, largest share first;
	// Other is the path time spent outside any span.
	Spans []PathSpan
	Other Buckets
	// Chain is the bounded newest-first... oldest-first tail of path
	// segments; ChainDropped counts older segments that fell out of
	// the ring.
	Chain        []PathSegment
	ChainDropped int
	// SkewUs is the largest |chain-sum − clock| over all processors:
	// the online recording's reconciliation error, exactly zero with
	// the integer-valued parameter presets.
	SkewUs float64
	// Threshold is the conformance flagging factor in effect;
	// Conformance holds one entry per span that recorded a prediction,
	// sorted by descending Ratio.
	Threshold   float64
	Conformance []ConformanceEntry
}

// Check verifies the path's structural invariants: buckets sum to the
// makespan, the span attribution (plus Other) reproduces the buckets
// class by class, no class is negative, and chain segments are
// ordered. It returns the first violation, or nil.
func (cp *CritPath) Check() error {
	const eps = 1e-6
	if d := float64(cp.Buckets.Total() - cp.Makespan); d < -eps || d > eps {
		return fmt.Errorf("obs: critical path buckets sum to %.6f but makespan is %.6f",
			float64(cp.Buckets.Total()), float64(cp.Makespan))
	}
	sum := cp.Other
	for _, s := range cp.Spans {
		sum.Add(s.Buckets)
	}
	if sum.Since(cp.Buckets).below(-eps) || cp.Buckets.Since(sum).below(-eps) {
		return fmt.Errorf("obs: critical path span attribution %+v does not reproduce buckets %+v",
			sum, cp.Buckets)
	}
	if cp.Other.below(-eps) {
		return fmt.Errorf("obs: critical path unattributed residue is negative: %+v", cp.Other)
	}
	prev := costmodel.Time(-1)
	for i, sg := range cp.Chain {
		if sg.T1 < sg.T0 {
			return fmt.Errorf("obs: chain segment %d ends at %.3f before it starts at %.3f",
				i, float64(sg.T1), float64(sg.T0))
		}
		if sg.T1 < prev {
			return fmt.Errorf("obs: chain segment %d ends at %.3f, before its predecessor's %.3f",
				i, float64(sg.T1), float64(prev))
		}
		prev = sg.T1
	}
	if cp.SkewUs > eps {
		return fmt.Errorf("obs: critical path reconciliation skew %g us", cp.SkewUs)
	}
	return nil
}

// WorstConformance returns the largest measured/predicted ratio in the
// report and the number of flagged entries (0, 0 with no entries).
func (cp *CritPath) WorstConformance() (ratio float64, flagged int) {
	for _, e := range cp.Conformance {
		if e.Ratio > ratio {
			ratio = e.Ratio
		}
		if e.Flagged {
			flagged++
		}
	}
	return ratio, flagged
}

// WriteText prints the path as a human-readable report: the one-line
// attribution sentence, the span table, the chain tail, and the
// conformance table.
func (cp *CritPath) WriteText(w io.Writer) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "critical path: p=%d (d=%d)  makespan %.1f us  ends on proc %d  hops %d\n",
		cp.P, cp.Dim, float64(cp.Makespan), cp.EndProc, cp.Hops)
	if cp.Makespan > 0 {
		pct := func(t costmodel.Time) float64 { return 100 * float64(t) / float64(cp.Makespan) }
		fmt.Fprintf(bw, "attribution: compute %.1f%%  startup %.1f%%  transfer %.1f%%  idle %.1f%%\n",
			pct(cp.Buckets.Compute), pct(cp.Buckets.Startup),
			pct(cp.Buckets.Transfer), pct(cp.Buckets.Idle))
		fmt.Fprintf(bw, "%-32s %8s %11s %11s %11s %11s\n",
			"span on path", "share", "compute", "startup", "transfer", "idle")
		row := func(name string, b Buckets) {
			fmt.Fprintf(bw, "%-32s %7.1f%% %11.1f %11.1f %11.1f %11.1f\n",
				name, pct(b.Total()),
				float64(b.Compute), float64(b.Startup), float64(b.Transfer), float64(b.Idle))
		}
		for _, s := range cp.Spans {
			row(s.Name, s.Buckets)
		}
		if cp.Other.Total() > 0 {
			row("(outside spans)", cp.Other)
		}
	}
	if len(cp.ByDim) > 0 {
		fmt.Fprint(bw, "transfer by dimension:")
		for d, t := range cp.ByDim {
			if t > 0 {
				fmt.Fprintf(bw, "  d%d:%.1f", d, float64(t))
			}
		}
		fmt.Fprintln(bw)
	}
	if len(cp.Chain) > 0 {
		fmt.Fprintf(bw, "chain tail (last %d segments", len(cp.Chain))
		if cp.ChainDropped > 0 {
			fmt.Fprintf(bw, ", %d earlier dropped", cp.ChainDropped)
		}
		fmt.Fprint(bw, "):\n")
		for _, sg := range cp.Chain {
			span := sg.Span
			if span == "" {
				span = "-"
			}
			switch sg.Kind {
			case "hop":
				fmt.Fprintf(bw, "  %10.1f            hop %d -d%d-> %d  [%s]\n",
					float64(sg.T1), sg.From, sg.Dim, sg.Proc, span)
			case "send":
				fmt.Fprintf(bw, "  %10.1f %10.1f  proc %d %s d%d  [%s]\n",
					float64(sg.T0), float64(sg.T1), sg.Proc, sg.Kind, sg.Dim, span)
			default:
				fmt.Fprintf(bw, "  %10.1f %10.1f  proc %d %s  [%s]\n",
					float64(sg.T0), float64(sg.T1), sg.Proc, sg.Kind, span)
			}
		}
	}
	if len(cp.Conformance) > 0 {
		fmt.Fprintf(bw, "cost-model conformance (flag at measured/predicted > %.1f):\n", cp.Threshold)
		fmt.Fprintf(bw, "  %-30s %7s %12s %12s %7s %7s\n",
			"span", "count", "measured/op", "predicted/op", "ratio", "path%")
		for _, e := range cp.Conformance {
			mark := " "
			if e.Flagged {
				mark = "!"
			}
			fmt.Fprintf(bw, "%s %-30s %7d %12.1f %12.1f %7.2f %6.1f%%\n",
				mark, e.Name, e.Count, e.MeasuredUs, e.PredictedUs, e.Ratio, 100*e.PathShare)
		}
	}
	bw.Flush()
}

// writeJW writes the critical-path document: the export schema that
// scripts/critpath_schema.json mirrors. scripts/check.sh validates
// generated documents against that schema, so field changes must
// update both.
func (cp *CritPath) writeJW(j *jw) {
	j.beginObject()
	j.key("dim").int(int64(cp.Dim))
	j.key("p").int(int64(cp.P))
	j.key("end_proc").int(int64(cp.EndProc))
	j.key("makespan_us").float(float64(cp.Makespan))
	j.key("buckets_us").beginObject()
	j.bucketFields(cp.Buckets, 1)
	j.endObject()
	j.key("hops").int(int64(cp.Hops))
	j.key("skew_us").float(cp.SkewUs)
	j.key("transfer_by_dim_us").beginArray()
	for _, t := range cp.ByDim {
		j.elem().float(float64(t))
	}
	j.endArray()
	share := func(t costmodel.Time) float64 {
		if cp.Makespan <= 0 {
			return 0
		}
		return float64(t) / float64(cp.Makespan)
	}
	j.key("spans").beginArray()
	for _, s := range cp.Spans {
		j.elem().beginObject()
		j.key("name").str(s.Name)
		j.bucketFields(s.Buckets, 1)
		j.key("total_us").float(float64(s.Total()))
		j.key("share").float(share(s.Total()))
		j.endObject()
	}
	j.endArray()
	j.key("other_us").float(float64(cp.Other.Total()))
	j.key("chain").beginArray()
	for _, sg := range cp.Chain {
		j.elem().beginObject()
		j.key("proc").int(int64(sg.Proc))
		if sg.From != 0 {
			j.key("from").int(int64(sg.From))
		}
		if sg.Span != "" {
			j.key("span").str(sg.Span)
		}
		j.key("kind").str(sg.Kind)
		j.key("dim").int(int64(sg.Dim))
		j.key("t0_us").float(float64(sg.T0))
		j.key("t1_us").float(float64(sg.T1))
		j.endObject()
	}
	j.endArray()
	j.key("chain_dropped").int(int64(cp.ChainDropped))
	j.key("conformance").beginObject()
	j.key("threshold").float(cp.Threshold)
	j.key("entries").beginArray()
	for _, e := range cp.Conformance {
		j.elem().beginObject()
		j.key("name").str(e.Name)
		j.key("count").int(e.Count)
		j.key("measured_per_op_us").float(e.MeasuredUs)
		j.key("predicted_per_op_us").float(e.PredictedUs)
		j.key("ratio").float(e.Ratio)
		j.key("path_share").float(e.PathShare)
		j.key("flagged").bool(e.Flagged)
		j.endObject()
	}
	j.endArray()
	j.endObject()
	j.endObject()
}

// WriteJSON writes the machine-readable critical-path document (the
// schema scripts/critpath_schema.json describes).
func (cp *CritPath) WriteJSON(w io.Writer) error {
	j := newJW(w, true)
	cp.writeJW(j)
	j.raw("\n")
	return j.finish()
}

// MarshalJSON embeds the same document when a CritPath appears inside
// another JSON structure (post-mortem reports). It returns the
// indented form; encoding/json compacts what a Marshaler returns.
func (cp *CritPath) MarshalJSON() ([]byte, error) {
	j := newJW(nil, true)
	cp.writeJW(j)
	return j.bytes()
}

// SortSpansByShare orders the span attribution largest-total first
// (ties by name) — the order WriteText prints and producers store.
func SortSpansByShare(spans []PathSpan) {
	sort.SliceStable(spans, func(i, j int) bool {
		ti, tj := spans[i].Total(), spans[j].Total()
		if ti != tj {
			return ti > tj
		}
		return spans[i].Name < spans[j].Name
	})
}
