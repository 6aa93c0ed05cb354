package hypercube

import (
	"fmt"
	"sort"

	"vmprim/internal/costmodel"
)

// Message tracing: when enabled, every link transfer is recorded with
// its virtual send time, endpoints and size. Traces are the simulator's
// debugging microscope — they show exactly which communication pattern
// an algorithm generated, and their per-link volumes expose congestion.

// TraceEvent records one link message.
type TraceEvent struct {
	// Time is the virtual time at which the message completed sending.
	Time costmodel.Time
	// Src and Dst are the endpoint processor addresses.
	Src, Dst int
	// Dim is the cube dimension of the link used.
	Dim int
	// Words is the payload length.
	Words int
	// Tag is the protocol tag.
	Tag int
}

// String renders the event compactly.
func (ev TraceEvent) String() string {
	return fmt.Sprintf("t=%.1f %d->%d dim%d %dw tag%d", float64(ev.Time), ev.Src, ev.Dst, ev.Dim, ev.Words, ev.Tag)
}

// EnableTrace turns on message tracing for subsequent runs, keeping at
// most limit events per processor (0 disables). Must be called between
// runs, never during one — the same restriction as EnableProfile, and
// the two compose: profiling records spans and clock buckets without
// tracing, but the Chrome-trace exporter draws message flow arrows
// only from traced events, so set both before the run you want to
// visualize.
func (m *Machine) EnableTrace(limit int) { m.traceLimit = limit }

// Trace returns the events of the most recent traced run, ordered by
// virtual time (ties by source address). It returns nil if tracing was
// off. Tracing is independent of EnableProfile — a profiled run has a
// trace only if EnableTrace was also set before it — but per-link word
// volumes do not need it: Congestion reads always-on counters.
func (m *Machine) Trace() []TraceEvent {
	out := make([]TraceEvent, len(m.trace))
	copy(out, m.trace)
	return out
}

// collectTrace gathers and orders the per-processor event buffers.
func (m *Machine) collectTrace(procs []*Proc) {
	if m.traceLimit <= 0 {
		m.trace = nil
		return
	}
	var all []TraceEvent
	for _, pr := range procs {
		all = append(all, pr.trace...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Time != all[j].Time {
			return all[i].Time < all[j].Time
		}
		return all[i].Src < all[j].Src
	})
	m.trace = all
}
