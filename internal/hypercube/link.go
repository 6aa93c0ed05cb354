package hypercube

import "sync/atomic"

// Link transport: one bounded single-producer single-consumer ring per
// directed cube edge, and one park/wake primitive per processor.
//
// The only sender along (dst, dim) is dst's dimension-dim neighbor and
// the only receiver is dst, so a Lamport ring needs no lock: the
// producer alone writes tail, the consumer alone writes head, and each
// reads the other's index to tell full from empty. sync/atomic
// operations are sequentially consistent, which gives the two edges
// the transport relies on: a slot written before tail.Store is visible
// to the consumer that loads that tail, and a slot cleared before
// head.Store is free for the producer that loads that head.
//
// Blocking is the slow path and goes through the parker: a processor
// that finds its ring empty (or full) publishes what it is parked on,
// re-checks the ring, and only then sleeps on its wake channel (see
// Proc.park). Three parties wake it, all the same way — load the park
// word, claim it by compare-and-swap, send the one token:
//
//   - its link partner, after moving its ring index, if the word names
//     this link (unpark). Either the parker's re-check sees the
//     partner's index store or the partner's load sees the parker's
//     publication (both are sequentially consistent store-then-load
//     pairs), so no wake-up is lost;
//   - a failing sibling, after setting the run's abort flag (interrupt);
//   - the goroutine that called Run, which is the run's only deadlock
//     watchdog: at the end of every timeout window it claims each
//     published word, marks the parker expired and wakes it (expire).
//     The woken processor judges itself (see Proc.park).
//
// The claim by CAS means exactly one token is sent per publication, so
// the one-slot wake channel never blocks its sender, and the owner
// consumes that token on every way out of the wait, so none is left
// over for the next park.

// cacheLine is the padding granularity that keeps the producer's and
// the consumer's index (and neighboring processors' park words) from
// sharing a cache line.
const cacheLine = 64

// link is the ring of one directed edge. buf has linkCap+1 slots: one
// stays empty so that head == tail means empty and next(tail) == head
// means full, with no separate count to keep coherent.
type link struct {
	buf []message
	// head is the next slot to read; written only by the consumer.
	head atomic.Uint32
	_    [cacheLine - 24 - 4]byte
	// tail is the next slot to write; written only by the producer.
	tail atomic.Uint32
	_    [cacheLine - 4]byte
}

func (l *link) next(i uint32) uint32 {
	if i++; int(i) == len(l.buf) {
		return 0
	}
	return i
}

// push appends msg, reporting false when the ring is full. Producer
// side only.
func (l *link) push(msg message) bool {
	t := l.tail.Load()
	n := l.next(t)
	if n == l.head.Load() {
		return false
	}
	l.buf[t] = msg
	l.tail.Store(n)
	return true
}

// pop removes the oldest message, reporting false when the ring is
// empty. Consumer side only. The slot is cleared so the ring does not
// keep a delivered payload reachable.
func (l *link) pop() (message, bool) {
	h := l.head.Load()
	if h == l.tail.Load() {
		return message{}, false
	}
	msg := l.buf[h]
	l.buf[h] = message{}
	l.head.Store(l.next(h))
	return msg, true
}

func (l *link) empty() bool { return l.head.Load() == l.tail.Load() }

func (l *link) full() bool { return l.next(l.tail.Load()) == l.head.Load() }

// Park words: zero means running, otherwise the kind of wait and the
// dimension of the link waited on.
const (
	parkRecv uint32 = 1 << 8
	parkSend uint32 = 2 << 8
)

// parker is one processor's park/wake primitive. The parkers are a
// per-machine slab, one cache line each; they are all Run's own
// goroutine touches between dispatch and join.
type parker struct {
	// state is the published park word.
	state atomic.Uint32
	// expired is the watchdog's mark: a timeout window ended while the
	// owner was parked. It is only ever set under a claimed publication
	// and before that claim's token is sent, so the owner finds it with
	// the token and clears it with the publication (cancel); a mark set
	// on a bare look at the word could outlive a wait that a delivery
	// had just ended and kill the processor at its next park.
	expired atomic.Bool
	// wake carries the one token of the current publication.
	wake chan struct{}
	_    [cacheLine - 4 - 4 - 8]byte
}

// cancel withdraws the publication of w once the owner has decided to
// stop waiting. If a waker claimed the word first its token is on the
// way and is consumed here, so none is ever left over for the next
// park. The watchdog's mark goes with the publication: it came with a
// token, this one or the one that ended the owner's last sleep, and
// the owner has acted on it or has a better reason to stop.
func (pk *parker) cancel(w uint32) {
	if !pk.state.CompareAndSwap(w, 0) {
		<-pk.wake
	}
	if pk.expired.Load() {
		pk.expired.Store(false)
	}
}

// unpark wakes the owner if it is parked on exactly w.
func (pk *parker) unpark(w uint32) {
	if pk.state.Load() == w && pk.state.CompareAndSwap(w, 0) {
		pk.wake <- struct{}{}
	}
}

// interrupt wakes the owner whatever it is parked on; the woken loop
// re-reads the abort flag to learn why.
func (pk *parker) interrupt() {
	if w := pk.state.Load(); w != 0 && pk.state.CompareAndSwap(w, 0) {
		pk.wake <- struct{}{}
	}
}

// expire is interrupt at a window boundary: the mark is stored under
// the claim and before the token, in that order (see parker.expired).
func (pk *parker) expire() {
	if w := pk.state.Load(); w != 0 && pk.state.CompareAndSwap(w, 0) {
		pk.expired.Store(true)
		pk.wake <- struct{}{}
	}
}
