// Package flightrec is the simulator's flight recorder: a bounded,
// always-on, per-processor ring buffer of recent simulator events
// (sends, receives, collective entries) and the post-mortem report the
// machine assembles from it when a run dies — by a detected deadlock
// or by a panic inside a processor body.
//
// The package follows the same discipline as internal/obs: it is
// passive and cheap. internal/hypercube records events into each
// processor's Ring on the communication hot paths. A ring is an array
// of 32-byte, pointer-free slots, so recording an event writes four
// words, with no allocation, no write barrier and no locking — each
// ring is touched only by its processor during a run, and a run has one
// thread. A label is stored as an id into the machine's Labels table.
// Only after a run has already failed does the machine expand the slots
// into Events and assemble a Report. flightrec depends only on
// internal/costmodel and internal/obs, so every layer above the machine
// can import it without cycles.
//
// Events are kept in causal (sequence) order per processor. Under the
// one-port machine model a processor's virtual clock is nondecreasing
// across events, so the sequence order is also virtual-time order;
// all-port ExchangeAll phases may post their per-dimension messages
// with non-monotone arrival stamps inside the single phase, which is
// the one documented exception.
package flightrec

import "vmprim/internal/costmodel"

// Kind classifies one recorded event.
type Kind uint8

const (
	// KindSend is a link message posted to a neighbor.
	KindSend Kind = iota
	// KindRecv is a link message consumed from a neighbor.
	KindRecv
	// KindCollective is the entry into a collective protocol (or a
	// router phase); Label carries the protocol name and Dim the
	// subcube dimension mask.
	KindCollective
	// KindCapture is the offending payload of a tag mismatch, kept
	// for post-mortem inspection.
	KindCapture
)

// String returns the compact event-kind name used by the renderers.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindCollective:
		return "coll"
	case KindCapture:
		return "capt"
	default:
		return "?"
	}
}

// kindText holds String's names as bytes, for MarshalText to hand out
// without allocating; its last entry names every undefined Kind.
var kindText = [...][]byte{
	KindSend:        []byte("send"),
	KindRecv:        []byte("recv"),
	KindCollective:  []byte("coll"),
	KindCapture:     []byte("capt"),
	KindCapture + 1: []byte("?"),
}

// MarshalText returns String's name for k, so the JSON report spells
// event kinds out. The slice is shared: callers must not modify it.
func (k Kind) MarshalText() ([]byte, error) {
	return kindText[min(int(k), len(kindText)-1)], nil
}

// Event is one recorded simulator event as the report shows it.
// Ring.Snapshot expands the ring's slots into Events.
type Event struct {
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Seq is the processor-local sequence number, counted from 0 at
	// the start of the run over all events ever recorded (not just the
	// ones still in the ring).
	Seq uint64 `json:"seq"`
	// VT is the processor's virtual time when the event was recorded;
	// for sends it is the message's arrival stamp.
	VT costmodel.Time `json:"vt_us"`
	// Label is the collective protocol name for KindCollective, empty
	// otherwise.
	Label string `json:"label,omitempty"`
	// Dim is the cube dimension of the link (KindSend/KindRecv) or the
	// subcube dimension mask (KindCollective).
	Dim int `json:"dim"`
	// Tag is the protocol tag.
	Tag int `json:"tag"`
	// Words is the payload length in 64-bit words.
	Words int `json:"words"`
	// Span is the node id of the innermost open profiler span at
	// record time (-1 when profiling is off or no span is open); the
	// report resolves it to SpanName.
	Span int `json:"-"`
	// Depth is the open-span-stack depth at record time.
	Depth int `json:"span_depth,omitempty"`
	// SpanName is the resolved name of Span, filled in by the report
	// assembler (empty in a Snapshot).
	SpanName string `json:"span,omitempty"`
}

// Label identifies an event label in a Labels table. NoLabel, the
// zero Label, stands for the empty label.
type Label uint16

// NoLabel is the label of events that carry none.
const NoLabel Label = 0

// maxLabels is how many distinct labels one Labels table holds: every
// Label but NoLabel. A label first seen after the table is full is
// recorded as NoLabel, so its events show an empty label.
const maxLabels = 1<<16 - 1

// maxScan is how many names a Labels table compares one by one before
// it looks a name up by hashing. The in-tree collective and router
// labels number 16, and for them a few length compares beat a hash.
const maxScan = 16

// Labels is the string table behind Label ids, shared by the rings of
// one machine. A label allocates only the first time the table sees
// it. Up to maxScan names, Intern finds a name by comparing it with
// each held name; past that, through a map. Like the rings, a table is
// used by one goroutine at a time.
type Labels struct {
	names []string // names[id-1] is the label with that id
	ids   map[string]Label
}

// Intern returns the id of name, adding name to the table on first
// sight. The empty name is NoLabel.
func (t *Labels) Intern(name string) Label {
	if len(t.names) <= maxScan {
		for i, n := range t.names {
			if n == name {
				return Label(i + 1)
			}
		}
	} else if id, ok := t.ids[name]; ok {
		return id
	}
	if name == "" || len(t.names) == maxLabels {
		return NoLabel
	}
	if t.ids == nil {
		t.ids = make(map[string]Label)
	}
	t.names = append(t.names, name)
	id := Label(len(t.names))
	t.ids[name] = id
	return id
}

// Name returns the label with the given id, or "" for NoLabel.
func (t *Labels) Name(id Label) string {
	if id == NoLabel {
		return ""
	}
	return t.names[id-1]
}

// maxDepth is the largest span depth a slot stores; events recorded
// deeper than that show maxDepth.
const maxDepth = 1<<8 - 1

// slot is one event as the ring stores it: 32 bytes and no pointer, so
// the collector never scans a ring and a store needs no write barrier.
// Seq is the slot's position and is not stored. Dimension or mask,
// words and span id are narrowed to int32, which holds every mask of a
// machine of at most 2^20 processors and any payload under 2^31 words.
type slot struct {
	vt    costmodel.Time
	tag   int
	dim   int32
	words int32
	span  int32
	kind  Kind
	depth uint8
	label Label
}

// Ring is a bounded buffer of the most recent events on one processor,
// kept as slots that Snapshot expands into Events. The zero Ring drops
// everything; size it with Init. All methods are
// single-goroutine: the owning processor records during a run, and the
// machine snapshots only after the run has ended.
type Ring struct {
	buf []slot // capacity is a power of two; mask = len-1
	n   uint64 // total events recorded since the last Reset
}

// Init (re)allocates the ring to hold k events, rounding k up to the
// next power of two; k <= 0 disables recording.
func (r *Ring) Init(k int) {
	if k <= 0 {
		r.buf = nil
		r.n = 0
		return
	}
	c := 1
	for c < k {
		c <<= 1
	}
	r.buf = make([]slot, c)
	r.n = 0
}

// Reset forgets all recorded events without releasing the buffer.
func (r *Ring) Reset() { r.n = 0 }

// Depth returns the ring capacity in events.
func (r *Ring) Depth() int { return len(r.buf) }

// Total returns how many events were recorded since the last Reset,
// including ones that have already been overwritten.
func (r *Ring) Total() uint64 { return r.n }

// Record appends one event, overwriting the oldest once the ring is
// full. span is the innermost open profiler span's node id (-1 for
// none) and depth the open-span-stack depth, stored up to maxDepth.
func (r *Ring) Record(kind Kind, label Label, dim, tag, words, span, depth int, vt costmodel.Time) {
	if len(r.buf) == 0 {
		return
	}
	s := &r.buf[r.n&uint64(len(r.buf)-1)]
	s.vt, s.tag = vt, tag
	s.dim, s.words, s.span = int32(dim), int32(words), int32(span)
	s.kind, s.depth, s.label = kind, uint8(min(depth, maxDepth)), label
	r.n++
}

// Snapshot appends the retained events to dst, oldest first, resolving
// labels in labels, and returns the extended slice.
func (r *Ring) Snapshot(dst []Event, labels *Labels) []Event {
	if len(r.buf) == 0 || r.n == 0 {
		return dst
	}
	mask := uint64(len(r.buf) - 1)
	start := uint64(0)
	if r.n > uint64(len(r.buf)) {
		start = r.n - uint64(len(r.buf))
	}
	for seq := start; seq < r.n; seq++ {
		s := &r.buf[seq&mask]
		dst = append(dst, Event{
			Seq: seq, VT: s.vt, Kind: s.kind, Label: labels.Name(s.label),
			Dim: int(s.dim), Tag: s.tag, Words: int(s.words),
			Span: int(s.span), Depth: int(s.depth),
		})
	}
	return dst
}
