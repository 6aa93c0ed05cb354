package obs

// Live streaming hook: the machine can emit observability events while
// a run is still executing, so a long run is watchable before its
// profile exists. The hook follows the package's passive discipline —
// internal/hypercube decides when to emit (span opens and closes on
// processor 0, periodic progress marks, the end-of-run link-congestion
// summary) and obs only defines the event vocabulary. Emission never
// touches a virtual clock, so a streamed run's simulated results are
// bit-identical to an unstreamed one; the only cost is the sink call
// itself, paid exclusively on processor 0's coroutine.
//
// Sinks must be cheap and must not block: they run inline on the
// goroutine that called Run, which is the run's only thread. The
// serving layer's sink appends to a bounded buffer and fans out to
// subscribers on their own goroutines, which is the intended shape.

// Stream event kinds, as they appear on the wire (SSE event names and
// the "kind" JSON field).
const (
	// EvSpanOpen and EvSpanClose bracket one occurrence of a profiler
	// span on processor 0. They carry the span name, nesting depth and
	// the processor's virtual clock at the boundary.
	EvSpanOpen  = "span_open"
	EvSpanClose = "span_close"
	// EvProgress is a periodic heartbeat: every progressEvery span
	// closes on processor 0, carrying the running total of closed
	// spans and the current virtual clock.
	EvProgress = "progress"
	// EvLink is one directed link's word load, emitted for the
	// hottest links when the run's communication has quiesced.
	EvLink = "link_congestion"
)

// StreamEvent is one live observability event. Fields are populated
// according to Kind; unused fields are zero and omitted from JSON.
type StreamEvent struct {
	// Kind is one of the Ev* constants.
	Kind string `json:"kind"`
	// VTUs is the virtual time of the event in simulated microseconds
	// (processor 0's clock for span and progress events, the run's
	// elapsed time for link events).
	VTUs float64 `json:"vt_us"`
	// Name is the span name for span events.
	Name string `json:"name,omitempty"`
	// Depth is the span nesting depth (0 = top level) for span events.
	Depth int `json:"depth,omitempty"`
	// Closed is the running count of closed spans, on progress events.
	Closed int64 `json:"closed,omitempty"`
	// Src, Dim, Dst and Words describe one directed link on
	// link-congestion events.
	Src   int   `json:"src,omitempty"`
	Dim   int   `json:"dim,omitempty"`
	Dst   int   `json:"dst,omitempty"`
	Words int64 `json:"words,omitempty"`
}

// StreamSink consumes live events. It is called on the goroutine that
// called Run, during the run and after it for the link summary, one
// call at a time per machine; it must return quickly.
type StreamSink func(StreamEvent)
