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
// phase that carries nothing costs the host no coroutine switch, and a
// side with nothing to send or receive costs no host work beyond its
// charges.
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
// of runs a processor holds are merged into one.
//
// Routed buffers are reused, not allocated per route. Each processor
// holds two wires and uses them in alternation by its route count: a
// batch is written into the wire of the processor's route before last,
// which every receiver of that route has left behind by entering a
// later one, and the runs a route merges are written behind the
// route's own wire. So a delivered payload is valid until its
// receiver's next route, and may still be read while that route's
// batch is built; a caller that keeps one longer copies it out. The
// wrappers' result lists are held the same way. The wires are held
// strongly while a Run is in flight and only weakly between Runs, as
// the machine's scratch arena is, so an idle machine keeps them only
// until a collection. They stay out of the machine's buffer pool,
// whose size classes their traffic-shaped sizes would not ask for
// again; the one pooled buffer is the scratch an interleaved partition
// stages messages through, returned before the partition ends.
package router

import (
	"fmt"
	"math"
	"weak"

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
	// the delivered runs (capacity clipped to the payload, so an append
	// reallocates): like the list itself it is valid until the caller's
	// next route, may be overwritten, and must not be Recycled.
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
// dst*2^32 + len stays below 2^53, so the signed conversion, one
// instruction where the unsigned one branches, is exact.
func header(w float64) (dst, n int) {
	dl := int64(w)
	return int(dl >> 32), int(dl & math.MaxUint32)
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
// router injects. The first Add or Ask takes the processor's wire of
// its route before last, if that holds the room reserved, and routing
// hands the batch's wire back to be taken two routes later. A batch is
// routed once; the zero Batch routes nothing.
type Batch struct {
	s           *slot
	procs, id   int
	msgs, words int // room reserved by NewBatch, taken by the first Add or Ask
	wire        []float64
	n           int // messages added
}

// NewBatch returns an empty batch for p with room for msgs messages
// carrying words payload words in all (a request carries none of the
// caller's). Nothing is taken before the first Add or Ask.
func NewBatch(p *hypercube.Proc, msgs, words int) Batch {
	s, _ := p.Met().(*slot) // nil before p's first route, with no wire to take
	return Batch{s: s, procs: p.P(), id: p.ID(), msgs: msgs, words: words}
}

// room makes space for k more words, at least the room NewBatch
// reserved at per wire words a message besides the payload: in the
// held wire if it fits (take), else in a new one.
func (b *Batch) room(per, k int) {
	if len(b.wire)+k > cap(b.wire) {
		n := max(len(b.wire)+k, 2*cap(b.wire), per*b.msgs+b.words)
		w := b.s.take(n)
		if w == nil {
			w = make([]float64, 0, n)
		}
		b.wire = append(w, b.wire...)
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
// delivery order by Next: a view of the runs the processor's slot
// holds until its next route.
type Inbox struct {
	runs  [][]float64
	r, at int // the next message: its run and its offset there
	skip  int // leading payload words that carry the key
}

// Next returns the next delivered message's key and payload, or ok
// false after the last. The key is the sender's for Route and the
// request's number for Request. A payload is valid until the
// processor's next route, and may still be read while that route's
// batch is built; it may be overwritten, never Recycled, and its
// capacity is clipped, so an append reallocates. The Inbox itself is
// spent by the next route.
func (in *Inbox) Next() (key int, words []float64, ok bool) {
	if in.r == len(in.runs) {
		return 0, nil, false
	}
	run, at := in.runs[in.r], in.at
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
// but sums taken in delivery order are reproducible. The batch's wire
// becomes the router's, held for the processor's route after next, so
// what a processor sent must not be read after its next route either.
// Route is a machine-wide collective: every processor must call it
// with the same tag.
func (b *Batch) Route(p *hypercube.Proc, tag int) Inbox {
	s := b.s
	if s == nil {
		s = slotOf(p)
	}
	route(p, s, tag, b.wire, b.n)
	*b = Batch{}
	return Inbox{runs: s.runs}
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
	for _, run := range arrived.runs {
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
// list it returns, and the Words of its messages, are valid until the
// processor's next route, as an Inbox's payloads are. It and Request
// serve the benchmark's callers, which hold message lists; code in
// this module builds Batches.
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
	l := slotOf(p).last()
	msgs := l.msgs[:0]
	for key, words, ok := in.Next(); ok; key, words, ok = in.Next() {
		msgs = append(msgs, Msg{Dst: p.ID(), Key: key, Words: words})
	}
	l.msgs = msgs
	return msgs[:len(msgs):len(msgs)]
}

// Request is Batch.Request over a list of (owner processor, key)
// pairs. The result maps each request index to the fetched payload;
// it is valid until the processor's next route, as Route's is.
func Request(p *hypercube.Proc, tag int, want []Msg, serve func(key int) []float64) [][]float64 {
	b := NewBatch(p, len(want), 0)
	for _, w := range want {
		b.Ask(w.Dst, w.Key)
	}
	in := b.Request(p, tag, serve)
	l := slotOf(p).last()
	out := l.got[:0]
	if cap(out) < len(want) {
		out = make([][]float64, len(want))
	}
	out = out[:len(want)]
	for i, words, ok := in.Next(); ok; i, words, ok = in.Next() {
		out[i] = words
	}
	l.got = out
	return out[:len(want):len(want)]
}

// slot is what a processor leaves at a route's rendezvous: its tag and
// its pending traffic between phases, wire-form runs in delivery order
// — the injection buffer, then each phase's arrivals, as many runs as
// their sender forwarded from. Runs are appended, and merged only when
// there would be more than maxRuns (see receive): a phase divides each
// run in place and drops the ones it empties, keeping the rest in
// order. After the last phase the runs are what the route delivered,
// kept for the Inbox until the processor's next route or the end of
// the Run. Each processor keeps one slot for the machine's lifetime
// (hypercube.Proc.Met), whose run list grows to the most runs the
// processor has held, and whose lanes hold its routed storage.
type slot struct {
	runs [][]float64
	tag  int
	// routes counts the routes the processor has entered; a route uses
	// lane routes&1. held pins the lanes while a Run is in flight, nil
	// between Runs, when only weak holds them (see EndRun).
	routes int
	held   *[2]lane
	weak   weak.Pointer[[2]lane]
}

// lane is a processor's routed storage for the routes of one parity:
// the latest one's wire, with used words of it holding that route's
// injection run and then the runs it merged, and the result lists the
// wrappers returned from it. A batch built for the route after next
// takes the wire: every receiver of this route will have entered the
// next one by then, so none reads it any more.
type lane struct {
	wire []float64
	used int
	msgs []Msg
	got  [][]float64
}

// slotOf returns p's slot, a new one before p's first route.
func slotOf(p *hypercube.Proc) *slot {
	if s, ok := p.Met().(*slot); ok {
		return s
	}
	return new(slot)
}

// lanes returns s's lanes, held strongly until the Run ends: the ones
// weak still reaches, or new ones if a collection took them.
func (s *slot) lanes() *[2]lane {
	if s.held == nil {
		if s.held = s.weak.Value(); s.held == nil {
			s.held = new([2]lane)
			s.weak = weak.Make(s.held)
		}
	}
	return s.held
}

// last returns the lane of the route the processor entered last.
func (s *slot) last() *lane { return &s.lanes()[(s.routes-1)&1] }

// take hands a batch for the processor's next route the wire of its
// route before last, if that holds at least n words, and nil otherwise
// (always on a nil slot, the zero Batch's). The wire leaves the lane,
// so two batches built before one route never share it.
func (s *slot) take(n int) []float64 {
	if s == nil {
		return nil
	}
	l := &s.lanes()[s.routes&1]
	if len(l.wire) < n {
		return nil
	}
	w := l.wire[:0]
	l.wire = nil
	return w
}

// carve returns an empty slice with room for n words in the lane of
// the route in flight, behind what its wire already holds, or in a new
// wire, larger than the last, if they do not fit.
func (s *slot) carve(n int) []float64 {
	l := s.last()
	if l.used+n > len(l.wire) {
		l.wire, l.used = make([]float64, max(2*len(l.wire), n)), 0
	}
	at := l.used
	l.used += n
	return l.wire[at : at : at+n]
}

// EndRun ends the Run's use of s: the runs its last route delivered
// are dropped, and the lanes are left held only weakly, so that a
// collection while the machine is idle may take them. The machine
// calls it after every Run (hypercube.RunLocal).
func (s *slot) EndRun() {
	s.release()
	s.held = nil
}

// release drops the runs the slot holds: what the last route delivered,
// or what a route that failed left.
func (s *slot) release() {
	clear(s.runs)
	s.runs = s.runs[:0]
}

// route routes the caller's msgs messages, in wire form in wire, and
// leaves in s.runs what was addressed here. The route is one
// machine-level step: every processor leaves its runs in its slot and
// meets the others, and the last to arrive runs every phase for every
// pair (phases). The wire goes to the route's lane, where the runs the
// route merges follow it.
func route(p *hypercube.Proc, s *slot, tag int, wire []float64, msgs int) {
	p.BeginSpan("route")
	defer p.EndSpan()
	p.NoteCollective("route", p.FullMask(), tag)
	if p.Profiling() {
		// Predict from the local injection load: each of the d phases
		// forwards about half of what is pending here on average.
		p.SpanPredict(costmodel.PredictRoute(p.Params(), p.Dim(), msgs, len(wire)-headerWords*msgs, headerWords))
	}
	s.release()
	s.tag = tag
	l := &s.lanes()[s.routes&1]
	s.routes++
	if l.used = len(wire); cap(wire) > 0 {
		l.wire = wire[:cap(wire)]
	}
	if len(wire) > 0 {
		s.runs = append(s.runs, wire)
	}
	p.Meet(tag, s, phases)
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
	if len(s.runs) == 0 {
		return nil, 0, 0
	}
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
// router makes, into the route's lane (carve).
func (s *slot) receive(arrived [][]float64) {
	if len(arrived) == 0 {
		return
	}
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
	merged := append(s.carve(w), last...)
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
