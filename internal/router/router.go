// Package router implements general point-to-point message routing on
// the simulated hypercube: the equivalent of the Connection Machine's
// router, and the communication substrate of the paper's "naive"
// application implementations.
//
// Routing is dimension-ordered (e-cube) store-and-forward: a full
// routing operation runs d = lg p phases; in phase i every processor
// forwards to its dimension-i neighbor all messages whose destination
// address differs from its own in bit i. After the d phases every
// message is at its destination. All processors must call Route
// together (it is a machine-wide collective), contributing possibly
// empty outgoing message lists.
//
// The cost difference from the structured collectives is deliberate
// and is the paper's central experimental point: besides the cube-edge
// transfer cost, each phase charges the router's start-up and a
// per-message handling overhead, so traffic that a primitive would
// move as one combined block costs the naive implementation one
// overhead per element-message per hop. Congestion is emergent: a
// processor whose links carry more routed volume accumulates a larger
// virtual clock, and the operation finishes at the slowest processor.
//
// On the host, a route is one machine-level step: every processor
// leaves its traffic at a rendezvous (hypercube.Proc.Meet) and parks
// once, and the last to arrive runs all d phases for all processors,
// pair by pair (hypercube.RoutePair charges and records each phase's
// two messages exactly as the simulated links would carry them), so a
// phase that carries nothing costs the host no coroutine switch.
// Messages stay in wire form (two header words, then the payload) from
// injection to delivery, and buffers move instead of being copied.
// Callers write messages with Batch.Add (requests with Batch.Ask)
// straight into the run the router injects and read what arrives from
// an Inbox over the delivered runs; Route and Request on message lists
// are wrappers over the two, kept for the benchmark's callers. Between
// phases a processor holds its runs in order, the injection run, then
// each phase's arrivals. A phase plans each run in one walk over its
// headers, partitions every run with leaving traffic in place, and
// hands the leaving parts, capacity-clipped subslices of their runs in
// run order, to the partner's runs, where they count as one message.
// Nothing is copied on the way, except that arrivals beyond the number
// of runs a processor holds are merged into one. Routed buffers are
// plain allocations that travel with the messages, kept neither
// between calls nor in the machine's buffer pool, whose size classes
// they would not ask for again. The one pooled buffer is the scratch
// an interleaved partition stages messages through, returned before
// the partition ends.
package router

import (
	"fmt"
	"math"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// Msg is one routed message: a destination processor, an integer key
// that the application uses to identify the payload (for example a
// matrix element index), and the payload words. The header travels as
// two float64 words, so Route panics on a message it cannot carry
// exactly: a Dst outside [0, P), a Key beyond ±2^53 or a payload of
// 2^32 words or more.
type Msg struct {
	// Dst is the destination processor address in [0, P).
	Dst int
	// Key identifies the message to the receiving application code.
	Key int
	// Words is the payload. In a message returned by Route it aliases
	// a buffer shared with the other returned messages (capacity
	// clipped to the payload, so an append reallocates): the caller
	// may keep or overwrite it, and must not Recycle it.
	Words []float64
}

// headerWords is the per-message encoding overhead on the wire. The
// destination and payload length pack exactly into one float64
// (dst*2^32 + len, both well under 2^26 and 2^32 respectively, so the
// sum stays integral below 2^53); the key rides in the second word.
const headerWords = 2

// maxKey bounds |Key|: every integer up to 2^53 is a float64.
const maxKey = 1 << 53

// appendHeader appends the header of an n-word message for dst on a
// procs-processor machine, panicking on a value the wire would corrupt.
func appendHeader(wire []float64, procs, dst, key, n int) []float64 {
	switch {
	case dst < 0 || dst >= procs:
		panic(fmt.Sprintf("router: destination %d out of range [0,%d)", dst, procs))
	case int64(key) < -maxKey || int64(key) > maxKey:
		panic(fmt.Sprintf("router: key %d not representable on the wire (|key| > 2^53)", key))
	case uint64(n) > math.MaxUint32:
		panic(fmt.Sprintf("router: payload of %d words not representable on the wire (>= 2^32)", n))
	}
	return append(wire, float64(uint64(dst)<<32|uint64(n)), float64(key))
}

// header decodes the first header word: destination and payload length.
func header(w float64) (dst, n int) {
	dl := uint64(w)
	return int(dl >> 32), int(dl & math.MaxUint32)
}

// held is what a route delivered to a processor: the wire-form runs
// its slot held after the last phase, in delivery order.
type held struct {
	runs [maxRuns][]float64
	n    int
}

// maxRuns is the number of runs a processor holds between phases.
const maxRuns = hypercube.MaxDim + 1

// next returns the offset of the message after the one at offset at.
func next(run []float64, at int) int {
	_, n := header(run[at])
	return at + headerWords + n
}

// Batch is one processor's outgoing traffic for one routing call,
// built in wire form: the buffer Add and Ask append to is the run the
// router injects. A batch is routed once; the zero Batch routes nothing.
type Batch struct {
	procs, id   int
	msgs, words int // room reserved by NewBatch, allocated by the first Add or Ask
	wire        []float64
	n           int // messages added
}

// NewBatch returns an empty batch for p with room for msgs messages
// carrying words payload words in all (a request carries none of the
// caller's). Nothing is allocated before the first Add or Ask.
func NewBatch(p *hypercube.Proc, msgs, words int) Batch {
	return Batch{procs: p.P(), id: p.ID(), msgs: msgs, words: words}
}

// room makes space for k more words, at least the room NewBatch
// reserved at per wire words a message besides the payload.
func (b *Batch) room(per, k int) {
	if len(b.wire)+k > cap(b.wire) {
		w := make([]float64, len(b.wire), max(len(b.wire)+k, 2*cap(b.wire), per*b.msgs+b.words))
		copy(w, b.wire)
		b.wire = w
	}
}

// Add appends a message for dst under key and returns its n-word
// payload, zeroed, to fill before a later Add or Ask outgrows the
// reserved room and moves the buffer. Its capacity runs on through
// later messages, so payloads p and q lie cap(p)-cap(q) words apart;
// it must not be appended to. Add panics on a header the wire cannot
// carry, as Route does.
func (b *Batch) Add(dst, key, n int) []float64 {
	b.room(headerWords, headerWords+n)
	b.wire = appendHeader(b.wire, b.procs, dst, key, n)
	at := len(b.wire)
	b.wire, b.n = b.wire[:at+n], b.n+1
	return b.wire[at:]
}

// Ask appends a request to processor dst for the payload it serves
// under key. Requests are numbered from 0 in the order asked.
func (b *Batch) Ask(dst, key int) {
	const reqWords = 2 // the asker's address and the request's number
	b.room(headerWords+reqWords, headerWords+reqWords)
	b.wire = append(appendHeader(b.wire, b.procs, dst, key, reqWords), float64(b.id), float64(b.n))
	b.n++
}

// Inbox is what a routing call delivered to a processor, walked in
// delivery order by Next.
type Inbox struct {
	h     held
	r, at int // the next message: its run and its offset there
	skip  int // leading payload words that carry the key
}

// Next returns the next delivered message's key and payload, or ok
// false after the last. The key is the sender's for Route and the
// request's number for Request. A payload is the caller's to keep or
// overwrite, never to Recycle; its capacity is clipped, so an append
// reallocates.
func (in *Inbox) Next() (key int, words []float64, ok bool) {
	if in.r == in.h.n {
		return 0, nil, false
	}
	run, at := in.h.runs[in.r], in.at
	end := next(run, at)
	if in.at = end; end == len(run) {
		in.r, in.at = in.r+1, 0
	}
	return int(run[at+1+in.skip]), run[at+headerWords+in.skip : end : end], true
}

// Route delivers every processor's batch to its destinations through
// dimension-ordered routing and returns the messages addressed to the
// calling processor (including any it sent to itself): those that
// never left, in the order added, then each phase's arrivals in the
// order their sender held them. Receivers should dispatch on the key,
// but sums taken in delivery order are reproducible. The batch's
// buffer becomes the router's. Route is a machine-wide collective:
// every processor must call it with the same tag.
func (b *Batch) Route(p *hypercube.Proc, tag int) Inbox {
	var in Inbox
	route(p, tag, b.wire, b.n, &in.h)
	*b = Batch{}
	return in
}

// Request pairs a round-trip through the router, with tags tag and
// tag+1: each processor sends the requests it asked and answers those
// it receives, and the Inbox holds one response per request. serve
// must return the payload for a key this processor owns, which is
// copied before serve is called again, so serve may reuse one buffer.
//
// This is the access pattern of the naive implementations: fetch the
// remote operands element by element, with no combining.
func (b *Batch) Request(p *hypercube.Proc, tag int, serve func(key int) []float64) Inbox {
	p.BeginSpan("route-request")
	defer p.EndSpan()
	p.NoteCollective("route-request", p.FullMask(), tag)
	// Each response goes back led by its request's number, in room
	// sized for one-word answers.
	arrived := b.Route(p, tag)
	words := 0
	for _, run := range arrived.h.runs[:arrived.h.n] {
		words += len(run)
	}
	back := NewBatch(p, 0, words)
	for key, ask, ok := arrived.Next(); ok; key, ask, ok = arrived.Next() {
		payload := serve(key)
		resp := back.Add(int(ask[0]), key, 1+len(payload))
		resp[0] = ask[1]
		copy(resp[1:], payload)
	}
	in := back.Route(p, tag+1)
	in.skip = 1
	return in
}

// Route is Batch.Route over a message list, which it only reads. The
// Words of the messages it returns alias the delivered runs. It and
// Request serve the benchmark's callers, which hold message lists;
// code in this module builds Batches.
func Route(p *hypercube.Proc, tag int, outgoing []Msg) []Msg {
	words := 0
	for _, m := range outgoing {
		words += len(m.Words)
	}
	b := NewBatch(p, len(outgoing), words)
	for _, m := range outgoing {
		copy(b.Add(m.Dst, m.Key, len(m.Words)), m.Words)
	}
	in := b.Route(p, tag)
	n := 0
	for c := in; c.r < c.h.n; c.Next() {
		n++
	}
	msgs := make([]Msg, 0, n)
	for key, words, ok := in.Next(); ok; key, words, ok = in.Next() {
		msgs = append(msgs, Msg{Dst: p.ID(), Key: key, Words: words})
	}
	return msgs
}

// Request is Batch.Request over a list of (owner processor, key)
// pairs. The result maps each request index to the fetched payload.
func Request(p *hypercube.Proc, tag int, want []Msg, serve func(key int) []float64) [][]float64 {
	b := NewBatch(p, len(want), 0)
	for _, w := range want {
		b.Ask(w.Dst, w.Key)
	}
	in := b.Request(p, tag, serve)
	out := make([][]float64, len(want))
	for i, words, ok := in.Next(); ok; i, words, ok = in.Next() {
		out[i] = words
	}
	return out
}

// slot is what a processor leaves at a route's rendezvous: its tag and
// its pending traffic between phases, wire-form runs in delivery order
// — the injection buffer, then each phase's arrivals, as many runs as
// their sender forwarded from. Runs are appended, and merged only when
// there would be more than maxRuns (see receive): a phase divides each
// run in place and drops the ones it empties, keeping the rest in
// order. Each processor keeps one slot for the machine's lifetime
// (hypercube.Proc.Met), which holds runs only during a route; its list
// grows to the most runs the processor has held, so it costs a
// processor that routes little traffic little memory.
type slot struct {
	runs [][]float64
	tag  int
}

// route routes the caller's msgs messages, in wire form in wire, and
// leaves in h the runs of what was addressed here. The route is one
// machine-level step: every processor leaves its runs in its slot and
// meets the others, and the last to arrive runs every phase for every
// pair (phases). The runs h receives are the caller's.
func route(p *hypercube.Proc, tag int, wire []float64, msgs int, h *held) {
	p.BeginSpan("route")
	defer p.EndSpan()
	p.NoteCollective("route", p.FullMask(), tag)
	if p.Profiling() {
		// Predict from the local injection load: each of the d phases
		// forwards about half of what is pending here on average.
		p.SpanPredict(costmodel.PredictRoute(p.Params(), p.Dim(), msgs, len(wire)-headerWords*msgs, headerWords))
	}
	s, _ := p.Met().(*slot)
	if s == nil {
		s = new(slot)
	}
	defer s.release()
	s.tag = tag
	if len(wire) > 0 {
		s.runs = append(s.runs, wire)
	}
	p.Meet(tag, s, phases)
	h.n = copy(h.runs[:], s.runs)
}

// release empties the slot: it outlives the route, the runs it held do
// not, whichever way the route ended.
func (s *slot) release() {
	clear(s.runs)
	s.runs = s.runs[:0]
}

// phases runs a route's d phases for every processor, each phase pair
// by pair in address order: each side's leaving traffic (forward) is
// charged and recorded by hypercube.RoutePair, and handed across to
// the other's runs (receive). A pair is done before the next starts,
// so one phase needs two part lists, not one per processor. It stops
// at a pair that fails, whose RoutePair has already failed the route.
func phases(procs []*hypercube.Proc) {
	var fa, fb [maxRuns][]float64
	for i, bit := 0, 1; bit < len(procs); i, bit = i+1, bit<<1 {
		for a, pa := range procs {
			if a&bit != 0 {
				continue
			}
			pb := procs[a|bit]
			ha, hb := pa.Met().(*slot), pb.Met().(*slot)
			// Phase i travels under tag<<6|i.
			sa := hypercube.RouteSide{Tag: ha.tag<<6 | i}
			sb := hypercube.RouteSide{Tag: hb.tag<<6 | i}
			sa.Parts, sa.Msgs, sa.Words = ha.forward(pa, i, &fa)
			sb.Parts, sb.Msgs, sb.Words = hb.forward(pb, i, &fb)
			if !hypercube.RoutePair(pa, pb, i, &sa, &sb) {
				return
			}
			ha.receive(sb.Parts)
			hb.receive(sa.Parts)
		}
	}
}

// forward takes out of s the messages that leave in phase i, those
// whose destination differs from p's address in bit i, and returns
// them in order as parts in fwd, one per run they leave from, with
// their count and payload words. Nothing is copied: split divides
// each run in its own memory. What stays is kept in order, and the
// runs emptied are dropped.
func (s *slot) forward(p *hypercube.Proc, i int, fwd *[maxRuns][]float64) (parts [][]float64, nfwd, wfwd int) {
	mine := p.ID() >> i & 1
	n, k := 0, 0
	for _, run := range s.runs {
		kept, f, msgs, words := split(p, run, i, mine)
		nfwd += msgs
		wfwd += words
		if len(f) > 0 {
			fwd[k] = f
			k++
		}
		if len(kept) > 0 {
			s.runs[n] = kept
			n++
		}
	}
	clear(s.runs[n:])
	s.runs = s.runs[:n]
	return fwd[:k], nfwd, wfwd
}

// receive appends to s the runs that arrived in a phase. When there
// would be more than maxRuns, they are merged, in order, into one run,
// led by s's last run if s already holds maxRuns: the one copy the
// router makes.
func (s *slot) receive(arrived [][]float64) {
	if len(s.runs)+len(arrived) <= maxRuns {
		s.runs = append(s.runs, arrived...)
		return
	}
	var last []float64
	if n := len(s.runs); n == maxRuns {
		last = s.runs[n-1]
		s.runs = s.runs[:n-1]
	}
	w := len(last)
	for _, run := range arrived {
		w += len(run)
	}
	merged := append(make([]float64, 0, w), last...)
	for _, run := range arrived {
		merged = append(merged, run...)
	}
	s.runs = append(s.runs, merged)
}

// split divides run into what stays and what leaves in phase i, the
// messages whose destination's bit i differs from mine, and returns
// both with the count and payload words of what leaves. Both sides
// keep their order and run's own memory, one at the front of run and
// the other behind it; what leaves is capacity-clipped, so its
// receiver cannot reach what stays. One walk over the headers plans
// the division: of the two layouts, split takes the one that moves
// fewer words out of the way. The front side is compacted forward,
// and the back-side messages that precede the front side's last
// message are staged through a scratch buffer borrowed from the
// machine's pool, returned before split does, and copied in behind
// it. A run with nothing leaving, one that leaves whole, and one whose
// leaving messages form a prefix or a suffix stage nothing and move
// nothing.
func split(p *hypercube.Proc, run []float64, i, mine int) (kept, fwd []float64, msgs, words int) {
	l := len(run)
	// Wire words leaving and staying, and the words to stage with what
	// stays in front (leaving words before the last staying message)
	// and with what leaves in front (staying words before the last
	// leaving message).
	var f, k, stageKF, stageFF int
	for at := 0; at < l; {
		dst, n := header(run[at])
		if dst>>i&1 != mine {
			f += headerWords + n
			msgs++
			stageFF = k
		} else {
			k += headerWords + n
			stageKF = f
		}
		at += headerWords + n
	}
	words = f - headerWords*msgs
	keptFront := stageKF <= stageFF
	stage, front := stageKF, k
	if !keptFront {
		stage, front = stageFF, f
	}
	if stage > 0 {
		s := p.GetBuf(stage)
		for at, w, ns := 0, 0, 0; w < front; {
			dst, n := header(run[at])
			end := at + headerWords + n
			if (dst>>i&1 != mine) == keptFront {
				ns += copy(s[ns:], run[at:end])
			} else {
				if w < at {
					copy(run[w:], run[at:end])
				}
				w += end - at
			}
			at = end
		}
		copy(run[front:], s)
		p.Recycle(s)
	}
	if keptFront {
		return run[:k], run[k:l:l], msgs, words
	}
	return run[f:], run[:f:f], msgs, words
}
