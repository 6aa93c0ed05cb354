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
// being copied: Route encodes the outgoing list once into a buffer it
// owns, each phase partitions that buffer in place and hands the
// forwarded part to Proc.SendOwned, and what arrives is adopted as is
// when nothing else is pending, so a lone block hops across the
// machine without a copy. Routed buffers are plain allocations that
// travel with the messages; none is kept between calls and none enters
// the machine's buffer pool, whose size classes a routed buffer, sized
// by the traffic pattern, would not be asked for again.
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

// Route delivers every processor's outgoing messages to their
// destinations through dimension-ordered routing and returns the
// messages addressed to the calling processor (including any the
// processor sent to itself). The result holds the messages that never
// left, in the order given, then each phase's arrivals in the order
// their sender held them; receivers should dispatch on Key, but sums
// taken in arrival order are reproducible. outgoing and its payloads
// are only read. Route is a machine-wide collective: every processor
// must call it with the same tag.
func Route(p *hypercube.Proc, tag int, outgoing []Msg) []Msg {
	words := 0
	for _, m := range outgoing {
		words += len(m.Words)
	}
	wire := make([]float64, 0, headerWords*len(outgoing)+words)
	for _, m := range outgoing {
		wire = appendHeader(wire, p.P(), m.Dst, m.Key, len(m.Words))
		wire = append(wire, m.Words...)
	}
	wire = route(p, tag, wire, len(outgoing))
	n := 0
	for at := 0; at < len(wire); n++ {
		_, l := header(wire[at])
		at += headerWords + l
	}
	msgs := make([]Msg, n)
	at := 0
	for k := range msgs {
		dst, l := header(wire[at])
		end := at + headerWords + l
		msgs[k] = Msg{Dst: dst, Key: int(wire[at+1]), Words: wire[at+headerWords : end : end]}
		at = end
	}
	return msgs
}

// route runs the d phases on wire, the caller's msgs messages in wire
// form, and returns the wire form of what was addressed here. It owns
// wire and the caller owns the result.
func route(p *hypercube.Proc, tag int, wire []float64, msgs int) []float64 {
	p.BeginSpan("route")
	defer p.EndSpan()
	p.NoteCollective("route", p.FullMask(), tag)
	if p.Profiling() {
		// Predict from the local injection load: each of the d phases
		// forwards about half of what is pending here on average.
		p.SpanPredict(costmodel.PredictRoute(p.Params(), p.Dim(), msgs, len(wire)-headerWords*msgs, headerWords))
	}
	for i := 0; i < p.Dim(); i++ {
		kept, fwd, nfwd, wfwd := split(wire, p.ID()>>i&1, i)
		// The router charges per-phase start-up plus per-message
		// handling on the payload volume; the link transfer itself
		// (payload + headers) is charged by the send.
		p.RoutePhaseCharge(nfwd, wfwd)
		p.SendOwned(i, tag<<6|i, fwd)
		got := p.Recv(i, tag<<6|i)
		if wire = got; len(kept) > 0 {
			wire = append(kept, got...)
		}
	}
	return wire
}

// split partitions wire by bit i of each message's destination:
// messages whose bit equals mine stay, compacted in order to the front
// of wire; the others go, in order, to fwd (nfwd messages, wfwd payload
// words). When everything leaves, wire itself is fwd.
func split(wire []float64, mine, i int) (kept, fwd []float64, nfwd, wfwd int) {
	for at := 0; at < len(wire); {
		dst, n := header(wire[at])
		if dst>>i&1 != mine {
			nfwd++
			wfwd += n
		}
		at += headerWords + n
	}
	switch total := headerWords*nfwd + wfwd; total {
	case 0:
		return wire, nil, 0, 0
	case len(wire):
		return nil, wire, nfwd, wfwd
	default:
		fwd = make([]float64, 0, total)
	}
	k := 0
	for at := 0; at < len(wire); {
		dst, n := header(wire[at])
		end := at + headerWords + n
		if dst>>i&1 != mine {
			fwd = append(fwd, wire[at:end]...)
		} else {
			k += copy(wire[k:], wire[at:end])
		}
		at = end
	}
	return wire[:k], fwd, nfwd, wfwd
}

// Request pairs a round-trip through the router: each processor sends
// read requests for remote values and answers the requests it
// receives. want lists (owner processor, key) pairs; serve must return
// the payload for a key this processor owns, which is copied before
// serve is called again, so serve may reuse one buffer. The result maps
// each request index to the fetched payload, in the order of want.
//
// This is the access pattern of the naive implementations: fetch the
// remote operands element by element, with no combining.
func Request(p *hypercube.Proc, tag int, want []Msg, serve func(key int) []float64) [][]float64 {
	p.BeginSpan("route-request")
	defer p.EndSpan()
	p.NoteCollective("route-request", p.FullMask(), tag)
	// Leg 1: route the requests. Key carries the requested item; the
	// payload carries the requester's address and request index.
	const reqWords = 2
	reqs := make([]float64, 0, (headerWords+reqWords)*len(want))
	for i, w := range want {
		reqs = appendHeader(reqs, p.P(), w.Dst, w.Key, reqWords)
		reqs = append(reqs, float64(p.ID()), float64(i))
	}
	arrived := route(p, tag, reqs, len(want))

	// Leg 2: route the responses back, each led by its request index.
	// Sized for one-word answers; longer ones grow the buffer.
	resps := make([]float64, 0, len(arrived))
	for at := 0; at < len(arrived); at += headerWords + reqWords {
		key := int(arrived[at+1])
		payload := serve(key)
		resps = appendHeader(resps, p.P(), int(arrived[at+2]), key, 1+len(payload))
		resps = append(append(resps, arrived[at+3]), payload...)
	}
	back := route(p, tag+1, resps, len(arrived)/(headerWords+reqWords))

	out := make([][]float64, len(want))
	for at := 0; at < len(back); {
		_, n := header(back[at])
		end := at + headerWords + n
		out[int(back[at+headerWords])] = back[at+headerWords+1 : end : end]
		at = end
	}
	return out
}
