package hypercube

// Link transport: one bounded FIFO queue per directed cube edge, its
// messages held in nodes of one store per machine.
//
// A machine executes one processor at a time (see engine), so links and
// the store are plain memory: no atomics, no locks and no padding. The
// only sender along (dst, dim) is dst's dimension-dim neighbor and the
// only receiver is dst, so at most one party ever waits on a link — the
// receiver when it is empty, the sender when it is full — and the link
// names it in waiter. Whoever changes the link's state next (the
// sender's push, the receiver's pop) puts that processor back on the
// run queue (see Proc.wake), so a wake-up cannot be lost.
//
// A link owns no storage. Its messages are a list of nodes taken from
// the store's free list on push and returned on pop, so a machine holds
// its peak number of messages in flight, not linkCap per link. The free
// list is LIFO, so a link that carries one message at a time keeps
// reusing the same node and cache line.

// link is the queue of one directed edge. It holds no pointer, so the
// collector never scans a machine's links.
type link struct {
	// head and tail are 1 + the store index of the oldest and newest
	// node, 0 when the link is empty; n is the number of nodes.
	head, tail, n int32
	// waiter is 1 + the address of the processor parked on this link,
	// 0 when nobody is.
	waiter int32
}

func (l *link) empty() bool { return l.n == 0 }

// msgNode is one queued message. next is 1 + the index of the node
// after it on its link or on the free list, 0 at the end. The padding
// makes a node one 64-byte cache line, so a push or a pop touches one
// line: with 56-byte nodes six in eight straddled two, and the prims
// workload's raw rate read 3-4% lower in paired runs.
type msgNode struct {
	message
	next int32
	_    [12]byte
}

// msgStore holds the nodes of every link of one machine.
type msgStore struct {
	nodes []msgNode
	// free is 1 + the index of the top of the free list, 0 when empty.
	free int32
	// inUse counts the nodes on links; the rest are on the free list.
	inUse int
	// cap is the number of messages a link holds, linkCap(dim).
	cap int32
}

func (s *msgStore) full(l *link) bool { return l.n == s.cap }

// push appends msg to l, reporting false when l is full.
func (s *msgStore) push(l *link, msg message) bool {
	if s.full(l) {
		return false
	}
	i := s.free
	if i == 0 {
		s.nodes = append(s.nodes, msgNode{})
		i = int32(len(s.nodes))
	}
	// An appended node's next is 0, so the free list stays empty.
	nd := &s.nodes[i-1]
	s.free, nd.next = nd.next, 0
	nd.message = msg
	if l.tail == 0 {
		l.head = i
	} else {
		s.nodes[l.tail-1].next = i
	}
	l.tail = i
	l.n++
	s.inUse++
	return true
}

// pop removes l's oldest message, reporting false when l is empty. The
// node is cleared before it goes back on the free list, so the store
// does not keep a delivered payload reachable.
func (s *msgStore) pop(l *link) (message, bool) {
	i := l.head
	if i == 0 {
		return message{}, false
	}
	nd := &s.nodes[i-1]
	msg := nd.message
	if l.head = nd.next; l.head == 0 {
		l.tail = 0
	}
	*nd = msgNode{next: s.free}
	s.free = i
	l.n--
	s.inUse--
	return msg, true
}
