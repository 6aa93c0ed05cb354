package flightrec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vmprim/internal/obs"
)

// Post-mortem report model. The machine assembles a Report after a
// failed run — deadlock, tag mismatch, or any panic in a
// processor body — from state that is quiescent by then: per-processor
// wait registers, flight-recorder rings, open profiler span stacks,
// bucket accumulators, and the messages still queued on the links.

// WaitKind names what a processor was blocked on when the run died.
type WaitKind uint8

const (
	// WaitNone means the processor was not blocked in the machine when
	// the run ended (it finished, was computing, or panicked itself).
	WaitNone WaitKind = iota
	// WaitRecv means the processor was blocked receiving.
	WaitRecv
	// WaitSend means the processor was blocked posting to a full link.
	WaitSend
	// WaitRendezvous means the processor was waiting in a machine-wide
	// rendezvous (a route) for the others to arrive.
	WaitRendezvous
)

// String returns the wait-kind name used in the report.
func (k WaitKind) String() string {
	switch k {
	case WaitRecv:
		return "recv"
	case WaitSend:
		return "send"
	case WaitRendezvous:
		return "rendezvous"
	default:
		return ""
	}
}

// CapturedBuf summarizes a payload kept for the post-mortem (the
// offending message of a tag mismatch): its length and a short prefix
// of its words.
type CapturedBuf struct {
	Len  int       `json:"len"`
	Head []float64 `json:"head,omitempty"`
}

// ProcState is one processor's post-mortem entry.
type ProcState struct {
	// ID is the processor's cube address.
	ID int `json:"proc"`
	// ClockUs is the processor's virtual clock when the run died.
	ClockUs float64 `json:"clock_us"`
	// BehindUs is the gap to the most advanced processor's clock: how
	// far this processor had fallen idle in virtual time.
	BehindUs float64 `json:"behind_us"`
	// Buckets splits the clock into compute/startup/transfer/idle.
	Buckets obs.Buckets `json:"buckets"`
	// Wait, WaitDim and WaitTag say what the processor was blocked on
	// ("recv" or "send" with the link dimension and protocol tag, or
	// "rendezvous" with dimension -1 and the route's tag); Wait is empty
	// if it was not blocked. WaitDim and WaitTag carry no
	// omitempty: dimension 0 and tag 0 are meaningful values.
	Wait    string `json:"wait,omitempty"`
	WaitDim int    `json:"wait_dim"`
	WaitTag int    `json:"wait_tag"`
	// WaitSinceUs is the virtual clock at which the blocking operation
	// began (equal to ClockUs: a blocked clock does not advance).
	WaitSinceUs float64 `json:"wait_since_us,omitempty"`
	// OpenSpans is the profiler span stack left open when the run died
	// (outermost first); empty unless the run was profiled.
	OpenSpans []string `json:"open_spans,omitempty"`
	// Captured holds at most one payload: the offending message of a
	// tag mismatch that killed this processor (its length and leading
	// words). It stays a list so the JSON shape does not change.
	Captured []CapturedBuf `json:"captured,omitempty"`
	// EventsTotal counts all events recorded this run, including
	// overwritten ones; Events is the flight-recorder tail, oldest
	// first.
	EventsTotal uint64  `json:"events_total"`
	Events      []Event `json:"events"`
}

// LinkState is one directed link that still held undelivered messages
// when the run died — the queue the blocked receiver never drained, or
// the mate of a mismatched exchange.
type LinkState struct {
	Src int `json:"src"`
	Dim int `json:"dim"`
	Dst int `json:"dst"`
	// Queued is the number of undelivered messages; QueuedWords their
	// total payload.
	Queued      int `json:"queued"`
	QueuedWords int `json:"queued_words"`
	// HeadTag and HeadVT describe the oldest undelivered message.
	HeadTag int     `json:"head_tag"`
	HeadVT  float64 `json:"head_vt_us"`
}

// Report is the structured post-mortem of one failed run.
type Report struct {
	// Cause is the failure message (the first processor panic).
	Cause string `json:"cause"`
	// FailedProc is the processor whose panic ended the run, or -1.
	FailedProc int `json:"failed_proc"`
	// Dim and P describe the machine.
	Dim int `json:"dim"`
	P   int `json:"p"`
	// MaxClockUs is the most advanced virtual clock at death.
	MaxClockUs float64 `json:"max_clock_us"`
	// Blocked counts processors with a non-empty Wait.
	Blocked int `json:"blocked"`
	// Procs holds one entry per processor, by cube address.
	Procs []ProcState `json:"procs"`
	// Links lists the links with undelivered messages, by source then
	// dimension.
	Links []LinkState `json:"links,omitempty"`
	// Crit is the critical path through the run up to the failure,
	// present when the machine ran with critical-path tracing enabled.
	// For a deadlock it shows which causal chain the machine was stuck
	// behind when nothing could run any more.
	Crit *obs.CritPath `json:"critpath,omitempty"`
}

// WriteJSON writes the report as an indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report for a terminal: the cause, the per-
// processor blocked-state table, each processor's flight-recorder
// tail, and the link occupancy.
func (r *Report) WriteText(w io.Writer) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "post-mortem: %s\n", r.Cause)
	fmt.Fprintf(bw, "machine: p=%d (d=%d)  max clock %.1f us  blocked %d/%d procs",
		r.P, r.Dim, r.MaxClockUs, r.Blocked, r.P)
	if r.FailedProc >= 0 {
		fmt.Fprintf(bw, "  first failure on proc %d", r.FailedProc)
	}
	fmt.Fprintln(bw)

	fmt.Fprintf(bw, "\n%-5s %12s %10s  %-22s %s\n", "proc", "clock", "behind", "blocked on", "open spans")
	for i := range r.Procs {
		ps := &r.Procs[i]
		blocked := "-"
		if ps.Wait != "" {
			blocked = fmt.Sprintf("%s dim %d tag %d", ps.Wait, ps.WaitDim, ps.WaitTag)
		}
		spans := strings.Join(ps.OpenSpans, " > ")
		fmt.Fprintf(bw, "%-5d %12.1f %10.1f  %-22s %s\n", ps.ID, ps.ClockUs, ps.BehindUs, blocked, spans)
	}

	for i := range r.Procs {
		ps := &r.Procs[i]
		if len(ps.Events) == 0 && len(ps.Captured) == 0 {
			continue
		}
		fmt.Fprintf(bw, "\nproc %d flight recorder (last %d of %d events):\n",
			ps.ID, len(ps.Events), ps.EventsTotal)
		if dropped := ps.EventsTotal - uint64(len(ps.Events)); dropped > 0 {
			fmt.Fprintf(bw, "  … %d earlier events dropped\n", dropped)
		}
		for _, ev := range ps.Events {
			fmt.Fprintf(bw, "  #%-5d t=%-10.1f %-4s", ev.Seq, float64(ev.VT), ev.Kind)
			if ev.Kind == KindCollective {
				fmt.Fprintf(bw, " %-14s mask %#x tag %d", ev.Label, ev.Dim, ev.Tag)
			} else {
				fmt.Fprintf(bw, " dim %d tag %d %dw", ev.Dim, ev.Tag, ev.Words)
			}
			if ev.SpanName != "" {
				fmt.Fprintf(bw, "  in %s", ev.SpanName)
			}
			fmt.Fprintln(bw)
		}
		for _, c := range ps.Captured {
			fmt.Fprintf(bw, "  captured payload: %d words, head %v\n", c.Len, c.Head)
		}
	}

	if len(r.Links) > 0 {
		fmt.Fprintf(bw, "\nundelivered link messages:\n")
		for _, l := range r.Links {
			fmt.Fprintf(bw, "  %d -dim%d-> %d: %d msg(s), %d words, oldest tag %d sent t=%.1f\n",
				l.Src, l.Dim, l.Dst, l.Queued, l.QueuedWords, l.HeadTag, l.HeadVT)
		}
	}
	if r.Crit != nil {
		fmt.Fprintln(bw)
		r.Crit.WriteText(bw)
	}
	bw.Flush()
}
