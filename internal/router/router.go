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
// On the host, messages stay in wire form (two header words, then the
// payload) from injection to delivery, and buffers move instead of
// being copied. Callers write messages with Batch.Add (requests with
// Batch.Ask) straight into the run the router injects and read what
// arrives from an Inbox over the delivered runs; Route and Request on
// message lists are wrappers over the two. Between phases a processor
// holds its runs in order, the injection run, then each phase's
// arrivals. A phase partitions every run with leaving traffic in place
// and sends the leaving parts, capacity-clipped subslices of their
// runs in run order, as one message through Proc.SendOwnedParts; the
// receiver appends them to its runs with Proc.RecvParts. Nothing is
// copied on the way, except that arrivals that do not fit the fixed
// number of runs a processor holds are merged into one. Routed buffers
// are plain allocations that travel with the messages, kept neither
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

// held is a processor's pending traffic between phases: wire-form
// runs in delivery order — the injection buffer, then each phase's
// arrivals, as many runs as their sender forwarded from. Runs are
// appended and merged only when the array would overflow (see
// receive): a phase divides each run in place and drops the ones it
// empties, keeping the rest in order.
type held struct {
	runs [maxRuns][]float64
	n    int
}

// maxRuns is the number of runs a processor holds between phases.
const maxRuns = hypercube.MaxDim + 1

// push appends run unless it is empty.
func (h *held) push(run []float64) {
	if len(run) > 0 {
		h.runs[h.n] = run
		h.n++
	}
}

// next returns the offset of the message after the one at offset at.
func next(run []float64, at int) int {
	_, n := header(run[at])
	return at + headerWords + n
}

// leaves reports whether the message headed by w leaves a processor
// whose address has bit i equal to mine in phase i.
func leaves(w float64, i, mine int) bool {
	dst, _ := header(w)
	return dst>>i&1 != mine
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
	in.h.push(b.wire)
	route(p, tag, &in.h, b.n)
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
// Words of the messages it returns alias the delivered runs.
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

// route runs the d phases on h, which holds the caller's msgs messages
// in wire form as its one run, and leaves in h the runs of what was
// addressed here. The runs h holds are the caller's.
func route(p *hypercube.Proc, tag int, h *held, msgs int) {
	p.BeginSpan("route")
	defer p.EndSpan()
	p.NoteCollective("route", p.FullMask(), tag)
	if p.Profiling() {
		// Predict from the local injection load: each of the d phases
		// forwards about half of what is pending here on average.
		p.SpanPredict(costmodel.PredictRoute(p.Params(), p.Dim(), msgs, len(h.runs[0])-headerWords*msgs, headerWords))
	}
	var fwd [maxRuns][]float64
	for i := 0; i < p.Dim(); i++ {
		parts, nfwd, wfwd := h.forward(p, i, &fwd)
		// The router charges per-phase start-up plus per-message
		// handling on the payload volume; the link transfer itself
		// (payload + headers) is charged by the send.
		p.RoutePhaseCharge(nfwd, wfwd)
		p.SendOwnedParts(i, tag<<6|i, parts)
		// Once sent, the parts leave fwd free for the arrivals.
		h.receive(p.RecvParts(i, tag<<6|i, fwd[:0]))
	}
}

// forward takes out of h the messages that leave in phase i, those
// whose destination differs from p's address in bit i, and returns
// them in order as parts in fwd, one per run they leave from, with
// their count and payload words. Nothing is copied: a run that leaves
// whole is a part as it is, and any other with leaving traffic is
// divided in its own memory (see split). What stays is kept in order,
// and the runs emptied are dropped.
func (h *held) forward(p *hypercube.Proc, i int, fwd *[maxRuns][]float64) (parts [][]float64, nfwd, wfwd int) {
	mine := p.ID() >> i & 1
	n, k := 0, 0
	for _, run := range h.runs[:h.n] {
		f := 0 // wire words leaving run
		for at := 0; at < len(run); {
			dst, l := header(run[at])
			if dst>>i&1 != mine {
				nfwd++
				wfwd += l
				f += headerWords + l
			}
			at += headerWords + l
		}
		switch f {
		case 0:
		case len(run):
			run, fwd[k] = nil, run[:f:f]
			k++
		default:
			run, fwd[k] = split(p, run, i, mine, f)
			k++
		}
		if len(run) > 0 {
			h.runs[n] = run
			n++
		}
	}
	clear(h.runs[n:h.n])
	h.n = n
	return fwd[:k], nfwd, wfwd
}

// receive appends to h the runs that arrived in a phase. When they do
// not all fit, they are merged, in order, into one run, led by h's
// last run if h is full: the one copy the router makes.
func (h *held) receive(arrived [][]float64) {
	if h.n+len(arrived) <= maxRuns {
		h.n += copy(h.runs[h.n:], arrived)
		return
	}
	var last []float64
	if h.n == maxRuns {
		h.n--
		last = h.runs[h.n]
	}
	w := len(last)
	for _, run := range arrived {
		w += len(run)
	}
	merged := append(make([]float64, 0, w), last...)
	for _, run := range arrived {
		merged = append(merged, run...)
	}
	h.runs[h.n] = merged
	h.n++
}

// split divides run, f of whose words leave in phase i, into what
// stays and what leaves, both in order and both in run's own memory,
// one side at the front of run and the other behind it; what leaves
// is capacity-clipped, so its receiver cannot reach what stays. Of the
// two layouts, split takes the one that moves fewer words out of the
// way: the front side is compacted forward, and the back-side messages
// that precede the front side's last message are staged through a
// scratch buffer borrowed from the machine's pool, returned before
// split does, and copied in behind it. A run that leaves whole, or
// whose leaving messages already form a prefix or a suffix, stages
// nothing and moves nothing.
func split(p *hypercube.Proc, run []float64, i, mine, f int) (kept, fwd []float64) {
	l, k := len(run), len(run)-f
	// Words to stage with what stays in front (leaving words before the
	// last staying message) and with what leaves in front (staying
	// words before the last leaving message).
	var stageKF, stageFF, fs, ks int
	for at := 0; at < l; {
		end := next(run, at)
		if leaves(run[at], i, mine) {
			fs += end - at
			stageFF = ks
		} else {
			ks += end - at
			stageKF = fs
		}
		at = end
	}
	keptFront := stageKF <= stageFF
	stage, front := stageKF, k
	if !keptFront {
		stage, front = stageFF, f
	}
	if stage > 0 {
		s := p.GetBuf(stage)
		for at, w, ns := 0, 0, 0; w < front; {
			end := next(run, at)
			if leaves(run[at], i, mine) == keptFront {
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
		return run[:k], run[k:l:l]
	}
	return run[f:], run[:f:f]
}
