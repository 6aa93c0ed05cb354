package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"vmprim/internal/costmodel"
)

// This file renders a Profile three ways: a human text tree, a
// machine-readable JSON document, and Chrome trace-event JSON that
// chrome://tracing and Perfetto load directly.

// WriteTree prints the profile as an indented text tree. Times are
// mean per-processor simulated microseconds (the sum over processors
// divided by P), so the root line matches the familiar elapsed-time
// scale; idle% is the idle share of each span's inclusive time.
func (pf *Profile) WriteTree(w io.Writer) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "profile: p=%d (d=%d)  elapsed %.1f us  msgs %d  words %d  flops %d\n",
		pf.P, pf.Dim, float64(pf.Elapsed), pf.Msgs, pf.Words, pf.Flops)
	tot := pf.Root.Buckets.Total()
	if tot > 0 {
		fmt.Fprintf(bw, "buckets (share of total processor-time): compute %.1f%%  startup %.1f%%  transfer %.1f%%  idle %.1f%%\n",
			100*float64(pf.Root.Buckets.Compute)/float64(tot),
			100*float64(pf.Root.Buckets.Startup)/float64(tot),
			100*float64(pf.Root.Buckets.Transfer)/float64(tot),
			100*float64(pf.Root.Buckets.Idle)/float64(tot))
	}
	fmt.Fprintf(bw, "bucket reconciliation: max |clock - (compute+startup+transfer+idle)| = %g us\n",
		float64(pf.BucketSkew()))

	label := func(s *Span) string {
		if s.Note != "" {
			return s.Name + " [" + s.Note + "]"
		}
		return s.Name
	}
	nameW := 4
	var measure func(s *Span, depth int)
	measure = func(s *Span, depth int) {
		if n := 2*depth + len(label(s)); n > nameW {
			nameW = n
		}
		for _, c := range s.Children {
			measure(c, depth+1)
		}
	}
	measure(pf.Root, 0)
	if nameW > 48 {
		nameW = 48
	}
	fmt.Fprintf(bw, "%-*s %7s %11s %11s %10s %12s %12s %6s\n",
		nameW, "span", "count", "incl", "excl", "msgs", "words", "flops", "idle%")
	inv := 1.0 / float64(pf.P)
	var print func(s *Span, depth int)
	print = func(s *Span, depth int) {
		idlePct := 0.0
		if s.Incl > 0 {
			idlePct = 100 * float64(s.Buckets.Idle) / float64(s.Incl)
		}
		fmt.Fprintf(bw, "%-*s %7d %11.1f %11.1f %10d %12d %12d %6.1f\n",
			nameW, pad(depth)+label(s), s.Count,
			float64(s.Incl)*inv, float64(s.Excl)*inv,
			s.Msgs, s.Words, s.Flops, idlePct)
		for _, c := range s.Children {
			print(c, depth+1)
		}
	}
	print(pf.Root, 0)
	if len(pf.Links) > 0 {
		k := len(pf.Links)
		if k > 8 {
			k = 8
		}
		fmt.Fprintf(bw, "hottest links (words per directed edge):")
		for _, l := range pf.Links[:k] {
			fmt.Fprintf(bw, "  %d-d%d->%d:%d", l.Src, l.Dim, l.Dst, l.Words)
		}
		fmt.Fprintln(bw)
	}
	bw.Flush()
	if pf.Crit != nil {
		pf.Crit.WriteText(w)
	}
}

func pad(depth int) string {
	const spaces = "                                                "
	n := 2 * depth
	if n > len(spaces) {
		n = len(spaces)
	}
	return spaces[:n]
}

// jsonSpan mirrors Span for export. Times are mean per-processor
// microseconds; max_incl_us is the slowest single processor.
type jsonSpan struct {
	Name      string     `json:"name"`
	Note      string     `json:"note,omitempty"`
	Count     int64      `json:"count"`
	InclUs    float64    `json:"incl_us"`
	ExclUs    float64    `json:"excl_us"`
	MaxInclUs float64    `json:"max_incl_us"`
	Compute   float64    `json:"compute_us"`
	Startup   float64    `json:"startup_us"`
	Transfer  float64    `json:"transfer_us"`
	Idle      float64    `json:"idle_us"`
	PredUs    float64    `json:"pred_us,omitempty"`
	Msgs      int64      `json:"msgs"`
	Words     int64      `json:"words"`
	Flops     int64      `json:"flops"`
	Children  []jsonSpan `json:"children,omitempty"`
}

type jsonProfile struct {
	Dim        int        `json:"dim"`
	P          int        `json:"p"`
	ElapsedUs  float64    `json:"elapsed_us"`
	Msgs       int64      `json:"msgs"`
	Words      int64      `json:"words"`
	Flops      int64      `json:"flops"`
	Buckets    Buckets    `json:"buckets_mean_us"`
	SkewUs     float64    `json:"bucket_skew_us"`
	Congestion []LinkLoad `json:"congestion,omitempty"`
	Spans      jsonSpan   `json:"spans"`
	CritPath   *CritPath  `json:"critpath,omitempty"`
}

// WriteJSON writes the machine-readable profile document. Span times
// are mean per-processor microseconds; buckets_mean_us is the mean
// whole-run bucket split.
func (pf *Profile) WriteJSON(w io.Writer) error {
	inv := 1.0 / float64(pf.P)
	var conv func(s *Span) jsonSpan
	conv = func(s *Span) jsonSpan {
		js := jsonSpan{
			Name:      s.Name,
			Note:      s.Note,
			Count:     s.Count,
			InclUs:    float64(s.Incl) * inv,
			ExclUs:    float64(s.Excl) * inv,
			MaxInclUs: float64(s.MaxIncl),
			Compute:   float64(s.Buckets.Compute) * inv,
			Startup:   float64(s.Buckets.Startup) * inv,
			Transfer:  float64(s.Buckets.Transfer) * inv,
			Idle:      float64(s.Buckets.Idle) * inv,
			PredUs:    float64(s.Pred) * inv,
			Msgs:      s.Msgs,
			Words:     s.Words,
			Flops:     s.Flops,
		}
		for _, c := range s.Children {
			js.Children = append(js.Children, conv(c))
		}
		return js
	}
	mean := pf.Root.Buckets
	mean.Compute = costmodel.Time(float64(mean.Compute) * inv)
	mean.Startup = costmodel.Time(float64(mean.Startup) * inv)
	mean.Transfer = costmodel.Time(float64(mean.Transfer) * inv)
	mean.Idle = costmodel.Time(float64(mean.Idle) * inv)
	links := pf.Links
	if len(links) > 32 {
		links = links[:32]
	}
	doc := jsonProfile{
		Dim:        pf.Dim,
		P:          pf.P,
		ElapsedUs:  float64(pf.Elapsed),
		Msgs:       pf.Msgs,
		Words:      pf.Words,
		Flops:      pf.Flops,
		Buckets:    mean,
		SkewUs:     float64(pf.BucketSkew()),
		Congestion: links,
		Spans:      conv(pf.Root),
		CritPath:   pf.Crit,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ChromeTrace writes Chrome trace-event JSON: one track per exported
// processor on the virtual-time axis (microseconds), spans as
// complete events, and — when the run was traced with EnableTrace —
// messages between exported processors as flow arrows. The exported
// processors are processor 0 and its cube neighbors (the machine
// keeps per-occurrence span logs only for those; see EnableProfile),
// so every dimension's traffic at processor 0 draws an arrow. At most
// maxProcs tracks are written (0 means all exported).
func (pf *Profile) ChromeTrace(w io.Writer, maxProcs int) error {
	if maxProcs <= 0 {
		maxProcs = len(pf.inst)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	sep()
	fmt.Fprint(bw, `{"ph":"M","name":"process_name","pid":0,"args":{"name":"hypercube (virtual time)"}}`)
	shown := make(map[int]bool)
	for _, pi := range pf.inst {
		if len(shown) >= maxProcs {
			break
		}
		shown[pi.proc] = true
		sep()
		fmt.Fprintf(bw, `{"ph":"M","name":"thread_name","pid":0,"tid":%d,"args":{"name":"proc %d"}}`,
			pi.proc, pi.proc)
		for _, in := range pi.inst {
			nd := pf.nodes[in.Node]
			sep()
			fmt.Fprintf(bw, `{"ph":"X","name":%s,"cat":"span","pid":0,"tid":%d,"ts":%s,"dur":%s`,
				strconv.Quote(nd.Name), pi.proc,
				ftoa(float64(in.Begin)), ftoa(float64(in.End-in.Begin)))
			if nd.Note != "" {
				fmt.Fprintf(bw, `,"args":{"note":%s}`, strconv.Quote(nd.Note))
			}
			bw.WriteString("}")
		}
	}
	// The critical path as its own highlighted track: one complete
	// event per chain segment, hops as instants. The tid sits past
	// every processor track so the path renders at the bottom.
	if pf.Crit != nil && len(pf.Crit.Chain) > 0 {
		sep()
		fmt.Fprintf(bw, `{"ph":"M","name":"thread_name","pid":0,"tid":%d,"args":{"name":"critical path"}}`,
			pf.P)
		for _, sg := range pf.Crit.Chain {
			sep()
			if sg.Kind == "hop" {
				fmt.Fprintf(bw, `{"ph":"i","s":"t","name":%s,"cat":"critpath","pid":0,"tid":%d,"ts":%s}`,
					strconv.Quote(fmt.Sprintf("hop %d-d%d->%d", sg.From, sg.Dim, sg.Proc)),
					pf.P, ftoa(float64(sg.T1)))
				continue
			}
			name := sg.Kind
			if sg.Span != "" {
				name = sg.Kind + " " + sg.Span
			}
			fmt.Fprintf(bw, `{"ph":"X","name":%s,"cat":"critpath","pid":0,"tid":%d,"ts":%s,"dur":%s,"args":{"proc":%d}}`,
				strconv.Quote(name), pf.P,
				ftoa(float64(sg.T0)), ftoa(float64(sg.T1-sg.T0)), sg.Proc)
		}
	}
	if len(shown) > 0 {
		id := 0
		for _, ev := range pf.Events {
			if !shown[ev.Src] || !shown[ev.Dst] {
				continue
			}
			id++
			name := strconv.Quote(fmt.Sprintf("msg dim%d tag%d (%dw)", ev.Dim, ev.Tag, ev.Words))
			ts := ftoa(float64(ev.Time))
			sep()
			fmt.Fprintf(bw, `{"ph":"s","name":%s,"cat":"msg","id":%d,"pid":0,"tid":%d,"ts":%s}`,
				name, id, ev.Src, ts)
			sep()
			fmt.Fprintf(bw, `{"ph":"f","bp":"e","name":%s,"cat":"msg","id":%d,"pid":0,"tid":%d,"ts":%s}`,
				name, id, ev.Dst, ts)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

// ftoa formats a trace timestamp without exponent notation, which
// some trace viewers reject.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', 3, 64) }
