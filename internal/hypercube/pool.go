package hypercube

import "math/bits"

// Message-buffer pooling: one free stack per capacity class, per
// machine.
//
// Every Send copies its payload so the caller may reuse the slice, and
// every collective works in scratch buffers; drawing those from a pool
// instead of the heap is what keeps the steady state of a run
// allocation-free (the simulated machine is unaffected either way —
// payload words and arrival times are identical). A buffer is taken on
// the sender, travels inside the message, and is recycled on the
// receiver, so traffic that is not pairwise symmetric moves buffers
// for good: a broadcast drains its sources and piles up at its sinks,
// a reduction the other way round — and three of the paper's four
// primitives are one-sided like that by definition.
//
// Hence one pool per machine, not one per processor: a buffer recycled
// anywhere serves the next get anywhere, so a get allocates only when
// no free buffer of its class exists on the whole machine, and the
// number of buffers in existence is the peak concurrent demand however
// many runs the machine serves. A run has one thread (see machine.go),
// so the stacks need no lock. The router's message buffers stay out
// of the pool (plain make, moved in place as the parts of one
// SendOwnedParts message per phase): their sizes follow the traffic
// pattern, not a class a later message would ask for again. The router
// borrows only the scratch of an in-place partition, and returns it
// before the phase's send. A plain Recv of a message sent in parts
// gathers it into a pooled buffer, recycled as any received payload.

// poolClasses bounds the capacity classes kept (2^27 floats = 1 GiB of
// payload per buffer is far beyond any simulated message).
const poolClasses = 28

// bufPool is a machine's buffer pool: LIFO stacks of free buffers
// segregated by power-of-two capacity class. The gets/hits counters
// feed the machine's metrics registry (pool hit rate); every Run
// resets them.
type bufPool struct {
	free [poolClasses][][]float64

	gets int64 // pooled-size get requests this run
	hits int64 // gets served without make this run
}

// get returns a buffer of length n with arbitrary contents (callers
// must fully overwrite it). Capacity is the smallest power of two >= n
// so that recycled buffers land back in the class they came from.
func (bp *bufPool) get(n int) []float64 {
	if n == 0 {
		return make([]float64, 0)
	}
	bp.gets++
	c := bits.Len(uint(n - 1))
	if c >= poolClasses {
		return make([]float64, n)
	}
	s := bp.free[c]
	if len(s) == 0 {
		return make([]float64, n, 1<<c)
	}
	b := s[len(s)-1]
	s[len(s)-1] = nil
	bp.free[c] = s[:len(s)-1]
	bp.hits++
	return b[:n]
}

// put returns b to the pool. Buffers with capacity that is not an
// exact power of two (sub-slices, foreign allocations) are classed by
// the largest power of two not exceeding their capacity, so a later
// get never receives a buffer too small for its class.
func (bp *bufPool) put(b []float64) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	if c >= poolClasses {
		return
	}
	bp.free[c] = append(bp.free[c], b[:0])
}
