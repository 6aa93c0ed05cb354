// Fixtures for the recyclecheck analyzer. The package path sits
// beneath vmprim/internal/apps, inside the analyzer's audit scope.
package rc

import "vmprim/internal/hypercube"

// leak holds the buffer, reads it, and never discharges it.
func leak(p *hypercube.Proc) float64 {
	buf := p.GetBuf(8) // want `buffer "buf" from GetBuf is never recycled, returned, or handed off`
	buf[0] = 1
	return buf[0]
}

// recvLeak leaks a received message the same way.
func recvLeak(p *hypercube.Proc) int {
	got := p.Recv(0, 1) // want `buffer "got" from Recv is never recycled`
	return len(got)
}

// recycled discharges by returning the buffer to the pool.
func recycled(p *hypercube.Proc) float64 {
	buf := p.GetBuf(8)
	buf[0] = 1
	v := buf[0]
	p.Recycle(buf)
	return v
}

// returned discharges by passing ownership to the caller; a reslice
// shares the backing array, so returning one counts.
func returned(p *hypercube.Proc) []float64 {
	buf := p.GetBuf(8)
	return buf[:4]
}

// dropped discards the only reference at the call site.
func dropped(p *hypercube.Proc) {
	p.Recv(0, 1) // want `result of Recv is dropped`
}

// blanked is the same leak spelled with the blank identifier.
func blanked(p *hypercube.Proc) {
	_ = p.Exchange(0, 1, nil) // want `result of Exchange is assigned to _`
}

// appended discharges into a growing slice: the element append hands
// the buffer to sink's owner.
func appended(p *hypercube.Proc, sink [][]float64) [][]float64 {
	buf := p.GetBuf(8)
	return append(sink, buf)
}

// stored discharges into a composite literal.
func stored(p *hypercube.Proc) [][]float64 {
	buf := p.GetBuf(8)
	return [][]float64{buf}
}

// recycleOnPanicPath leaks only if the panic fires; a panic aborts
// the whole run and the pools with it, so the flow-insensitive check
// accepts the straight-line recycle.
func recycleOnPanicPath(p *hypercube.Proc, n int) {
	buf := p.GetBuf(n)
	if n < 0 {
		panic("negative size")
	}
	p.Recycle(buf)
}

// allport extracts one element of an ExchangeAll result: the element
// is itself an owned buffer, and returning it discharges.
func allport(p *hypercube.Proc, dims []int) []float64 {
	got := p.ExchangeAll(dims, 1, nil)
	return got[0]
}

// borrowOnly shows the uses that are *not* discharges: len, indexing,
// copy, and payload arguments all leave the obligation standing.
func borrowOnly(p *hypercube.Proc, out []float64) int {
	buf := p.GetBuf(8) // want `buffer "buf" from GetBuf is never recycled`
	copy(out, buf)
	p.Send(0, 1, buf[:2])
	return len(buf)
}

// ownedSend discharges by moving the buffer itself onto the link: the
// receiver owns it, so the sender has nothing left to recycle.
func ownedSend(p *hypercube.Proc) {
	buf := p.GetBuf(8)
	buf[0] = 1
	p.SendOwned(0, 1, buf[:4])
}

// ownedSendOther moves a different buffer; sizing the tag from buf is
// a borrow, so buf's obligation stands.
func ownedSendOther(p *hypercube.Proc, other []float64) {
	buf := p.GetBuf(8) // want `buffer "buf" from GetBuf is never recycled`
	p.SendOwned(0, len(buf), other)
}

// predicted feeds a buffer-derived size into the critical-path
// predictor. SpanPredict is pure instrumentation — a borrow, not an
// origin and not a discharge — so the Recycle is still what closes
// the obligation.
func predicted(p *hypercube.Proc) {
	buf := p.GetBuf(64)
	p.SpanPredict(float64(len(buf)))
	p.Compute(len(buf))
	p.Recycle(buf)
}

// predictedLeak proves SpanPredict is not mistaken for a hand-off:
// without the Recycle the obligation stands.
func predictedLeak(p *hypercube.Proc) {
	buf := p.GetBuf(64) // want `buffer "buf" from GetBuf is never recycled`
	p.SpanPredict(float64(cap(buf)))
	p.SpanNote("predicted from buffer capacity")
}

// pinned documents a deliberate leak with a suppression directive.
func pinned(p *hypercube.Proc) {
	//lint:allow recyclecheck the scratch buffer is pinned for the lifetime of the run on purpose
	buf := p.GetBuf(8)
	buf[0] = 1
}

// ownedParts discharges a list of received buffers by moving them
// onto the link in parts: the receiver owns them. A receiver that
// takes the message with a plain Recv gets a gathered copy and the
// parts are dropped rather than recycled; only RecvParts hands them
// back, and its result is tracked like ExchangeAll's.
func ownedParts(p *hypercube.Proc, dims []int) {
	got := p.ExchangeAll(dims, 1, nil)
	p.SendOwnedParts(0, 1, got)
}

// ownedPartsOther moves a different list; sizing the tag from got is a
// borrow, so got's obligation stands.
func ownedPartsOther(p *hypercube.Proc, dims []int, other [][]float64) {
	got := p.ExchangeAll(dims, 1, nil) // want `buffer "got" from ExchangeAll is never recycled`
	p.SendOwnedParts(0, len(got), other)
}

// recvPartsLeak takes a message's parts and never discharges them.
func recvPartsLeak(p *hypercube.Proc) {
	got := p.RecvParts(0, 1, nil) // want `buffer "got" from RecvParts is never recycled`
	p.Compute(len(got))
}

// recvPartsForwarded moves the received parts on, as the router's
// forwarding does: the next receiver owns them.
func recvPartsForwarded(p *hypercube.Proc) {
	got := p.RecvParts(0, 1, nil)
	p.SendOwnedParts(1, 1, got)
}

// recvPartsHandedOff passes the fresh list straight to a call, which
// owns it from then on.
func recvPartsHandedOff(p *hypercube.Proc, keep func([][]float64)) {
	keep(p.RecvParts(0, 1, nil))
}
