package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
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
		pf.P, pf.Dim, float64(pf.Elapsed), pf.Messages, pf.Words, pf.Flops)
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
			s.Messages, s.Words, s.Flops, idlePct)
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

// WriteJSON writes the machine-readable profile document. Span times
// are mean per-processor microseconds (max_incl_us is the slowest
// single processor); buckets_mean_us is the mean whole-run bucket
// split, and congestion lists the 32 busiest links.
func (pf *Profile) WriteJSON(w io.Writer) error {
	j := newJW(w, true)
	inv := 1.0 / float64(pf.P)
	j.beginObject()
	j.key("dim").int(int64(pf.Dim))
	j.key("p").int(int64(pf.P))
	j.key("elapsed_us").float(float64(pf.Elapsed))
	j.key("msgs").int(pf.Messages)
	j.key("words").int(pf.Words)
	j.key("flops").int(pf.Flops)
	j.key("buckets_mean_us").beginObject()
	j.bucketFields(pf.Root.Buckets, inv)
	j.endObject()
	j.key("bucket_skew_us").float(float64(pf.BucketSkew()))
	if links := pf.Links; len(links) > 0 {
		if len(links) > 32 {
			links = links[:32]
		}
		j.key("congestion").beginArray()
		for _, l := range links {
			j.elem().beginObject()
			j.key("src").int(int64(l.Src))
			j.key("dim").int(int64(l.Dim))
			j.key("dst").int(int64(l.Dst))
			j.key("words").int(l.Words)
			j.endObject()
		}
		j.endArray()
	}
	j.key("spans")
	writeSpan(j, pf.Root, inv)
	if pf.Crit != nil {
		j.key("critpath")
		pf.Crit.writeJW(j)
	}
	j.endObject()
	j.raw("\n")
	return j.finish()
}

// writeSpan writes one span and its subtree; inv is 1/P.
func writeSpan(j *jw, s *Span, inv float64) {
	j.beginObject()
	j.key("name").str(s.Name)
	if s.Note != "" {
		j.key("note").str(s.Note)
	}
	j.key("count").int(s.Count)
	j.key("incl_us").float(float64(s.Incl) * inv)
	j.key("excl_us").float(float64(s.Excl) * inv)
	j.key("max_incl_us").float(float64(s.MaxIncl))
	j.bucketFields(s.Buckets, inv)
	if pred := float64(s.Pred) * inv; pred != 0 {
		j.key("pred_us").float(pred)
	}
	j.key("msgs").int(s.Messages)
	j.key("words").int(s.Words)
	j.key("flops").int(s.Flops)
	if len(s.Children) > 0 {
		j.key("children").beginArray()
		for _, c := range s.Children {
			j.elem()
			writeSpan(j, c, inv)
		}
		j.endArray()
	}
	j.endObject()
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
	t := traceWriter{newJW(w, false)}
	t.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	t.raw(`{"ph":"M","name":"process_name","pid":0,"args":{"name":"hypercube (virtual time)"}}`)
	// shown marks the exported processors given a track; flow arrows
	// are drawn only between two of them.
	shown := make([]bool, pf.P)
	nShown := 0
	for _, pi := range pf.inst {
		if nShown >= maxProcs {
			break
		}
		shown[pi.proc] = true
		nShown++
		t.event(`{"ph":"M","name":"thread_name","pid":0,"tid":`)
		t.int(pi.proc)
		t.raw(`,"args":{"name":"proc `)
		t.int(pi.proc)
		t.raw(`"}}`)
		for _, in := range pi.inst {
			nd := pf.nodes[in.Node]
			t.event(`{"ph":"X","name":`)
			t.str(nd.Name)
			t.raw(`,"cat":"span","pid":0,"tid":`)
			t.int(pi.proc)
			t.ts(`,"ts":`, in.Begin)
			t.ts(`,"dur":`, in.End-in.Begin)
			if nd.Note != "" {
				t.raw(`,"args":{"note":`)
				t.str(nd.Note)
				t.raw("}")
			}
			t.raw("}")
		}
	}
	// The critical path as its own highlighted track: one complete
	// event per chain segment, hops as instants. The tid sits past
	// every processor track so the path renders at the bottom.
	if pf.Crit != nil && len(pf.Crit.Chain) > 0 {
		t.event(`{"ph":"M","name":"thread_name","pid":0,"tid":`)
		t.int(pf.P)
		t.raw(`,"args":{"name":"critical path"}}`)
		for _, sg := range pf.Crit.Chain {
			if sg.Kind == "hop" {
				t.event(`{"ph":"i","s":"t","name":"hop `)
				t.int(sg.From)
				t.raw("-d")
				t.int(sg.Dim)
				t.raw("->")
				t.int(sg.Proc)
				t.raw(`","cat":"critpath","pid":0,"tid":`)
				t.int(pf.P)
				t.ts(`,"ts":`, sg.T1)
				t.raw("}")
				continue
			}
			t.event(`{"ph":"X","name":"`)
			t.buf = appendJSONChars(t.buf, sg.Kind, false)
			if sg.Span != "" {
				t.raw(" ")
				t.buf = appendJSONChars(t.buf, sg.Span, false)
			}
			t.raw(`","cat":"critpath","pid":0,"tid":`)
			t.int(pf.P)
			t.ts(`,"ts":`, sg.T0)
			t.ts(`,"dur":`, sg.T1-sg.T0)
			t.raw(`,"args":{"proc":`)
			t.int(sg.Proc)
			t.raw("}}")
		}
	}
	if nShown > 0 {
		id := 0
		for _, ev := range pf.Events {
			if !shown[ev.Src] || !shown[ev.Dst] {
				continue
			}
			id++
			t.flow(`{"ph":"s","name":"`, ev, id, ev.Src)
			t.flow(`{"ph":"f","bp":"e","name":"`, ev, id, ev.Dst)
		}
	}
	t.raw("\n]}\n")
	return t.finish()
}

// traceWriter appends the Chrome trace's compact events into a jw's
// bounded buffer. Strings are escaped as JSON without HTML escaping.
type traceWriter struct{ *jw }

// event starts the next event (every event but the first metadata one
// follows a separator) at an element boundary.
func (t traceWriter) event(head string) {
	t.boundary()
	t.raw(",\n")
	t.raw(head)
}

// flow appends one end of message ev's flow arrow on track tid.
func (t traceWriter) flow(head string, ev LinkEvent, id, tid int) {
	t.event(head)
	t.raw("msg dim")
	t.int(ev.Dim)
	t.raw(" tag")
	t.int(ev.Tag)
	t.raw(" (")
	t.int(ev.Words)
	t.raw(`w)","cat":"msg","id":`)
	t.int(id)
	t.raw(`,"pid":0,"tid":`)
	t.int(tid)
	t.ts(`,"ts":`, ev.Time)
	t.raw("}")
}

func (t traceWriter) int(n int) { t.buf = strconv.AppendInt(t.buf, int64(n), 10) }

// ts appends a key and a timestamp, fixed to three decimals without
// exponent notation, which some trace viewers reject.
func (t traceWriter) ts(key string, v costmodel.Time) {
	t.raw(key)
	t.buf = appendFixed3(t.buf, float64(v))
}

// appendFixed3 appends what strconv.AppendFloat(b, v, 'f', 3, 64)
// does, without the multiprecision path Go takes for every fixed
// precision. An integer below 2^53 (every CM-2 and iPSC timestamp is
// one) is formatted as an integer; the rest take the original call.
func appendFixed3(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 && (v != 0 || !math.Signbit(v)) {
		return append(strconv.AppendInt(b, int64(v), 10), ".000"...)
	}
	return strconv.AppendFloat(b, v, 'f', 3, 64)
}
