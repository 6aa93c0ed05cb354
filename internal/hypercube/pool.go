package hypercube

import (
	"math/bits"
	"sync"
)

// Message-buffer pooling: a magazine per processor in front of one
// depot per machine.
//
// Every Send copies its payload so the caller may reuse the slice, and
// every collective works in scratch buffers; drawing those from a pool
// instead of the heap is what keeps the steady state of a run
// allocation-free (the simulated machine is unaffected either way —
// payload words and arrival times are identical). A buffer is handed
// out by the sender's pool, travels inside the message, and goes into
// the *receiver's* pool when the receiver calls Recycle, so traffic
// that is not pairwise symmetric moves buffers for good: a broadcast
// drains its sources and piles up at its sinks, a reduction the other
// way round — and three of the paper's four primitives are one-sided
// like that by definition.
//
// Hence two levels, as in Bonwick's magazine/depot slab layer. Each
// Proc owns a magazine: free lists segregated by power-of-two capacity
// class, at most magCap buffers per class, touched only by that
// processor and therefore unsynchronized. The Machine owns the depot:
// the same lists, unbounded, behind a mutex (uncontended, since a
// machine runs one processor at a time). A put that finds its magazine
// full first moves magBatch buffers to the depot; a get that finds it
// empty takes up to magBatch back, and calls make only when the depot
// has none either. What piles up at the sinks thereby flows back to the
// sources, the number of buffers in existence is the peak concurrent
// demand whatever the number of runs, and a processor's retained memory
// is bounded by magCap buffers per class. The router's buffers stay out
// of the pools altogether (plain make, moved with SendOwned): their
// sizes follow the traffic pattern, not a class a later message would
// ask for again.

// poolClasses bounds the capacity classes kept (2^27 floats = 1 GiB of
// payload per buffer is far beyond any simulated message).
const poolClasses = 28

// magCap bounds a magazine's list per class and magBatch is how many
// buffers cross the depot's lock at a time. Measured at 8 and 4: prims
// keeps 8.9 MB live after 2,400 ops (262 MB with unbounded lists and no
// depot) at no cost in ops/s. A bound without the depot loses either
// way: cap 8 allocates 6.7% more per apps op, cap 64 still retains
// 37 KB per op, and at every cap the sources of a broadcast go on
// missing.
const (
	magCap   = 8
	magBatch = magCap / 2
)

// depot is the machine-wide level: per-class stacks of free buffers
// shared by every processor's magazine.
type depot struct {
	mu   sync.Mutex
	free [poolClasses][][]float64
}

// bufPool is one processor's magazine. The gets/hits counters feed the
// machine's metrics registry (pool hit rate); they are reset by every
// Run and, like the free lists, are touched only by the owning
// processor.
type bufPool struct {
	free  [poolClasses][][]float64
	depot *depot

	gets int64 // pooled-size get requests this run
	hits int64 // gets served without make (magazine or depot) this run
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
		if s = bp.refill(c); len(s) == 0 {
			return make([]float64, n, 1<<c)
		}
	}
	b := s[len(s)-1]
	s[len(s)-1] = nil
	bp.free[c] = s[:len(s)-1]
	bp.hits++
	return b[:n]
}

// refill moves up to magBatch buffers of class c from the depot into
// the empty magazine list and returns that list.
func (bp *bufPool) refill(c int) [][]float64 {
	d := bp.depot
	d.mu.Lock()
	moveTop(&bp.free[c], &d.free[c], min(len(d.free[c]), magBatch))
	d.mu.Unlock()
	return bp.free[c]
}

// moveTop moves the top k buffers of the stack *src onto *dst.
func moveTop(dst, src *[][]float64, k int) {
	s := *src
	i := len(s) - k
	*dst = append(*dst, s[i:]...)
	clear(s[i:])
	*src = s[:i]
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
	if len(bp.free[c]) == magCap {
		bp.spill(c)
	}
	bp.free[c] = append(bp.free[c], b[:0])
}

// spill moves magBatch buffers of class c from the full magazine list
// to the depot.
func (bp *bufPool) spill(c int) {
	d := bp.depot
	d.mu.Lock()
	moveTop(&d.free[c], &bp.free[c], magBatch)
	d.mu.Unlock()
}
