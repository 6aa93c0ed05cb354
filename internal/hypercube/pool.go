package hypercube

import "math/bits"

// Per-processor message-buffer pooling.
//
// Every Send copies its payload so the caller may reuse the slice; on
// the seed engine that copy was a fresh heap allocation per message,
// which dominated host time in benchmark loops (the simulated machine
// is unaffected either way — payload words and arrival times are
// identical). Each Proc now owns a free list of buffers segregated by
// power-of-two capacity class. Buffers are handed out by the sender's
// pool, travel inside the message, and are returned to the *receiver's*
// pool when the receiver calls Recycle after consuming the payload.
//
// Pairwise-symmetric collectives (exchange-based reductions, transpose)
// give every pool back what it hands out, so their steady state
// allocates nothing and retains nothing. One-to-many traffic does not:
// buffers leave the sources' pools and pile up in the sinks', the
// sources allocate afresh on the next run, and nothing ever shrinks a
// free list. Measured at d=8, n=512 over 300 back-to-back runs: 35.1 KB
// retained per op by ExtractRow (replicated), 31.4 Distribute, 36.5
// SpreadRows, 4.4 InsertRow, 0 for ReduceRows, ReduceColLoc and
// Transpose — which is why a long run of the primitives grows its live
// heap with the op count (ROADMAP item 2e). For the same reason the
// router keeps its buffers out of the pools altogether and moves them
// with SendOwned.
//
// The pool is single-goroutine by construction: each Proc's pool is
// touched only by that processor's worker goroutine (or by host code
// between runs), so get/put need no synchronization.

// poolClasses bounds the capacity classes kept (2^27 floats = 1 GiB of
// payload per buffer is far beyond any simulated message).
const poolClasses = 28

// bufPool is a segregated free list of []float64 scratch buffers. The
// gets/hits counters feed the machine's metrics registry (pool hit
// rate); they are reset by every Run and, like the free lists, are
// touched only by the owning processor's goroutine.
type bufPool struct {
	free [poolClasses][][]float64

	gets int64 // pooled-size get requests this run
	hits int64 // gets served from a free list this run
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
	if s := bp.free[c]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		bp.free[c] = s[:len(s)-1]
		bp.hits++
		return b[:n]
	}
	return make([]float64, n, 1<<c)
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
