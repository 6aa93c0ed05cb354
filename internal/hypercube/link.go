package hypercube

// Link transport: one bounded FIFO ring per directed cube edge.
//
// A machine executes one processor at a time (see engine), so a ring is
// plain memory: no atomics, no locks and no padding. The only sender
// along (dst, dim) is dst's dimension-dim neighbor and the only receiver
// is dst, so at most one party ever waits on a ring — the receiver when
// it is empty, the sender when it is full — and the ring names it in
// waiter. Whoever changes the ring's state next (the sender's push, the
// receiver's pop) puts that processor back on the run queue (see
// Proc.wake), so a wake-up cannot be lost.
//
// A ring that empties restarts at slot 0, so a link that carries one
// message at a time keeps using the same slot and cache line.

// link is the ring of one directed edge. buf has linkCap+1 slots: one
// stays empty so that head == tail means empty and next(tail) == head
// means full, with no separate count to keep.
type link struct {
	buf []message
	// head is the next slot to read, tail the next to write.
	head, tail int32
	// waiter is 1 + the address of the processor parked on this ring,
	// 0 when nobody is.
	waiter int32
}

func (l *link) next(i int32) int32 {
	if i++; int(i) == len(l.buf) {
		return 0
	}
	return i
}

// push appends msg, reporting false when the ring is full.
func (l *link) push(msg message) bool {
	n := l.next(l.tail)
	if n == l.head {
		return false
	}
	l.buf[l.tail] = msg
	l.tail = n
	return true
}

// pop removes the oldest message, reporting false when the ring is
// empty. The slot is cleared so the ring does not keep a delivered
// payload reachable.
func (l *link) pop() (message, bool) {
	h := l.head
	if h == l.tail {
		return message{}, false
	}
	msg := l.buf[h]
	l.buf[h] = message{}
	if h = l.next(h); h == l.tail {
		l.head, l.tail = 0, 0
	} else {
		l.head = h
	}
	return msg, true
}

func (l *link) empty() bool { return l.head == l.tail }

func (l *link) full() bool { return l.next(l.tail) == l.head }
