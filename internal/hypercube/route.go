package hypercube

import (
	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
)

// Machine-level routing: a rendezvous of every processor, and the
// pairwise edge a route's phases are made of.
//
// A dimension-ordered route involves the whole machine, and each of its
// d phases is one exchange between every pair of neighbors along one
// dimension. Run as messages, that is 2d coroutine switches per
// processor per route, most of them for phases that carry nothing
// (every phase pays the router's start-up whatever it carries). So a
// route is run as one step: every processor enters Meet and parks
// once, and the last to arrive runs every phase for every pair with
// RoutePair, which charges, counts and records exactly what the
// phase's two messages would have, in the order they would have, and
// then readies the others. Each phase visits its pairs in address
// order, and a pair touches only its own two processors, so which
// processor arrives last changes nothing.

// meetState is where a processor stands in a rendezvous.
type meetState uint8

const (
	// meetNone: not in a rendezvous.
	meetNone meetState = iota
	// meetParked: waiting in one for the others.
	meetParked
	// meetDone: readied by the last to arrive, the meeting run. The
	// engine's deadlock verdict and an abort ready a parked processor
	// with meetNone.
	meetDone
)

// Meet is a machine-wide rendezvous under tag: every processor calls
// it, leaving v, and waits for the others. The last to arrive calls all
// with the machine's processors, on its own coroutine, while the
// others are parked, and then readies them in address order; all may
// read what each left (Met) and run RoutePair on them. A processor
// that never arrives fails the run with a named deadlock, reported by
// the lowest waiting address, and the post-mortem lists every
// processor waiting here as blocked; a sibling's panic aborts the
// waiting processors. If all left a panic for a processor (a route
// whose tags do not match), Meet panics with it there.
func (p *Proc) Meet(tag int, v any, all func([]*Proc)) {
	m, e := p.m, p.m.eng
	p.met = v
	if m.meeting++; m.meeting == m.p && !e.aborted {
		m.meeting = 0
		all(m.procs)
		for pid, pr := range m.procs {
			if pr.meet == meetParked {
				pr.meet = meetDone
				e.ready(pid)
			}
		}
	} else {
		p.waitKind, p.waitDim, p.waitTag, p.waitSince = flightrec.WaitRendezvous, -1, tag, p.clock
		if !e.aborted {
			p.meet = meetParked
			p.yield(struct{}{})
		}
		switch {
		case p.meet == meetDone:
			p.waitKind = flightrec.WaitNone
		case e.aborted:
			p.abortMeet()
		default:
			p.panicked = deadlock("rendezvous", -1, tag)
		}
		p.meet = meetNone
	}
	if err := p.panicked; err != nil {
		panic(err)
	}
}

// abortMeet leaves p's Meet to end in an abort, unless a failure of
// its own is already there.
func (p *Proc) abortMeet() {
	if p.panicked == nil {
		p.panicked = errAborted
	}
}

// Met returns what p left at its latest Meet, nil before its first. The
// machine keeps it across Runs, so a caller can keep one value per
// processor there and reuse it.
func (p *Proc) Met() any { return p.met }

// RouteSide is one processor's half of a route phase between two
// neighbors: the parts of its held traffic it forwards, in wire form,
// which arrive as one message of their total length; the routed
// messages and payload words among them, which the router's handling
// charge is priced on; and the tag it sends under and expects.
type RouteSide struct {
	Parts       [][]float64
	Msgs, Words int
	Tag         int
}

// RoutePair runs phase i of a route between a and b, a's dimension-i
// neighbor, from the runner of a Meet: each side in turn is charged
// the router's phase cost (RoutePhaseCharge) and the send of its parts
// as one message, counted and recorded as SendOwned of their
// concatenation would be; then each receives the other's, its clock
// and critical path advanced and its flight recorder written as a Recv
// would. Nothing is handed over: the caller moves the parts. A message
// left on a link before the route, or a side whose tag the other does
// not expect, fails the receiver as Recv would, with the panic left
// for its Meet; every other processor's Meet then aborts, and
// RoutePair reports false.
func RoutePair(a, b *Proc, i int, sa, sb *RouteSide) bool {
	na, nb := a.routeSend(i, sa), b.routeSend(i, sb)
	ta, tb := a.clock, b.clock
	failA, failB := a.routeMismatch(i, sa.Tag, sb), b.routeMismatch(i, sb.Tag, sa)
	if failA || failB {
		for _, pr := range a.m.procs {
			pr.abortMeet()
		}
		return false
	}
	// At most one side's arrival is strictly later than its partner's
	// clock, so at most one adopts the other's chain, which is still
	// the one its message would have carried.
	a.routeRecv(b, i, sa.Tag, nb, tb)
	b.routeRecv(a, i, sb.Tag, na, ta)
	return true
}

// routeSend charges and records p's side s of a route phase on
// dimension d and returns the words of its message.
func (p *Proc) routeSend(d int, s *RouteSide) int {
	n := 0
	for _, pt := range s.Parts {
		n += len(pt)
	}
	p.RoutePhaseCharge(s.Msgs, s.Words)
	p.chargeSend(d, n)
	p.noteSend(d, s.Tag, n, p.clock)
	return n
}

// routeMismatch reports whether p's receive on dimension d, expecting
// tag want, fails: on a message left on its link before the route, or
// on the partner side from sent under another tag. It captures the
// offending payload and leaves the panic for p's Meet, as Recv would.
func (p *Proc) routeMismatch(d, want int, from *RouteSide) bool {
	got, words := from.Tag, []float64(nil)
	if l := &p.in[d]; p.m.store.inUse > 0 && !l.empty() {
		msg, _ := p.m.store.pop(l)
		p.m.putChain(msg.cp)
		got, words = msg.tag, msg.words
	} else if got == want {
		return false
	} else {
		for _, pt := range from.Parts {
			words = append(words, pt...)
		}
	}
	p.panicked = p.mismatch(d, got, want, words)
	return true
}

// routeRecv receives, on dimension d under tag, the n-word message from
// sent at arrive: an arrival strictly later than p's clock adopts from's
// chain with a hop (see cpRecv) and advances the clock.
func (p *Proc) routeRecv(from *Proc, d, tag, n int, arrive costmodel.Time) {
	if arrive > p.clock {
		if p.crit {
			node, _ := p.openSpan()
			p.cp.copyFrom(from.cp)
			p.cp.hops++
			p.cpSeg(node, cpKindHop, d, arrive, arrive)
		}
		p.clock = arrive
	}
	p.record(flightrec.KindRecv, flightrec.NoLabel, d, tag, n, p.clock)
}
