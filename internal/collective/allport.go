package collective

import (
	"fmt"

	"vmprim/internal/costmodel"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

// All-port broadcast after Johnsson & Ho ("Optimum Broadcasting and
// Personalized Communication in Hypercubes", 1987/89): the payload is
// split into k = popcount(mask) pieces and piece j travels down its
// own binomial spanning tree whose dimension order is the rotation
// (j, j+1, ..., j+k-1). At every one of the k steps the k trees use k
// distinct dimensions, so on a machine with concurrent communication
// on all ports each step costs one start-up plus one piece transfer:
// about k*tau + n*t_c in total, a factor-k bandwidth win over the
// one-port binomial tree's k*tau + k*n*t_c. On a one-port machine the
// same schedule serializes and is strictly worse than Bcast — use it
// only when Params.AllPorts is set (ablation A4 quantifies both).

// BcastAllPort broadcasts data from the subcube member with relative
// address rootRel using k rotated edge-disjoint binomial trees.
// len(data) must be divisible by k (and may be zero).
func BcastAllPort(p *hypercube.Proc, mask, tag, rootRel int, data []float64) []float64 {
	p.BeginSpan("bcast-allport")
	defer p.EndSpan()
	p.NoteCollective("bcast-allport", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() && p.Params().AllPorts {
		// The analytic cost assumes concurrent ports; on a one-port
		// machine the schedule serializes by design, so no prediction
		// is recorded there (the flag would fire spuriously).
		p.SpanPredict(costmodel.PredictBcastAllPort(p.Params(), k, len(data)))
	}
	if k == 0 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	r := rel(p, mask) ^ rootRel
	var n int
	if r == 0 {
		n = len(data)
		if n%k != 0 {
			panic(fmt.Sprintf("collective: BcastAllPort length %d not divisible by %d trees", n, k))
		}
	}
	// Piece j of the payload, nil while not yet received. The root
	// holds all pieces from the start.
	pieces := make([][]float64, k)
	if r == 0 {
		sz := n / k
		for j := 0; j < k; j++ {
			// Copy into non-nil slices: nil marks "not yet received",
			// and zero-length pieces (n == 0) must still count as held.
			pieces[j] = append([]float64{}, data[j*sz:(j+1)*sz]...)
		}
	}
	// maskBefore[j] accumulates the rel-space bits of the dimensions
	// tree j has already processed.
	maskBefore := make([]int, k)
	dims := make([]int, k)
	payloads := make([][]float64, k)
	for s := 0; s < k; s++ {
		// Slot i of the exchange carries whatever some tree sends on
		// physical dimension ds[i] this step; tree j uses rel-bit
		// (j+s) mod k.
		for i := 0; i < k; i++ {
			dims[i] = ds[i]
			payloads[i] = nil
		}
		type recvSlot struct{ tree, slot int }
		var recvs []recvSlot
		for j := 0; j < k; j++ {
			bitIdx := (j + s) % k
			bit := 1 << bitIdx
			switch {
			case r&^maskBefore[j] == 0 && pieces[j] != nil:
				// Holder in tree j: forward the piece along this
				// step's dimension.
				payloads[bitIdx] = pieces[j]
			case r&^(maskBefore[j]|bit) == 0 && r&bit != 0:
				recvs = append(recvs, recvSlot{tree: j, slot: bitIdx})
			}
			maskBefore[j] |= bit
		}
		got := p.ExchangeAll(dims, subTag(tag, s), payloads)
		for _, rs := range recvs {
			if len(got[rs.slot]) > 0 || lenPieceZero(pieces, r) {
				pieces[rs.tree] = got[rs.slot]
			}
		}
	}
	// Reassemble. Piece sizes are uniform; learn the size from any
	// received piece (the root knows its own).
	sz := 0
	for _, pc := range pieces {
		if pc != nil {
			sz = len(pc)
			break
		}
	}
	out := make([]float64, 0, sz*k)
	for j := 0; j < k; j++ {
		if pieces[j] == nil {
			panic("collective: BcastAllPort missing a piece (inconsistent rootRel?)")
		}
		out = append(out, pieces[j]...)
	}
	return out
}

// lenPieceZero reports whether this broadcast carries zero-length
// pieces (empty payload), in which case an empty receive is still a
// valid piece.
func lenPieceZero(pieces [][]float64, r int) bool {
	for _, pc := range pieces {
		if pc != nil {
			return len(pc) == 0
		}
	}
	// No piece seen yet: only possible mid-broadcast for non-roots; an
	// empty exchange result then means "no data on this slot" for
	// nonzero-length broadcasts and "the piece" for zero-length ones.
	// Zero-length broadcasts still deliver: treat empty as a piece.
	return true
}

// ReduceAllPort combines data across the subcube with comb and
// delivers the full combined vector to the member with relative
// address rootRel, using the time-reversed rotated-tree schedule of
// BcastAllPort: piece j of every member's contribution climbs tree j
// toward the root, combining at every internal node, and the k trees
// use k distinct dimensions at every step. On the all-port machine the
// cost is about k*tau + n*t_c (+ n flops of combining) versus the
// binomial tree's k*tau + k*n*t_c. Non-roots return nil. len(data)
// must be divisible by k on every member.
func ReduceAllPort(p *hypercube.Proc, mask, tag, rootRel int, data []float64, comb Combiner) []float64 {
	p.BeginSpan("reduce-allport")
	defer p.EndSpan()
	p.NoteCollective("reduce-allport", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() && p.Params().AllPorts {
		p.SpanPredict(costmodel.PredictReduceAllPort(p.Params(), k, len(data)))
	}
	if k == 0 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	if len(data)%k != 0 {
		panic(fmt.Sprintf("collective: ReduceAllPort length %d not divisible by %d trees", len(data), k))
	}
	r := rel(p, mask) ^ rootRel
	sz := len(data) / k
	pieces := make([][]float64, k)
	for j := 0; j < k; j++ {
		pieces[j] = append([]float64{}, data[j*sz:(j+1)*sz]...)
	}
	// maskBefore[j] for broadcast step s holds bits pi_j(0..s-1); the
	// reduce runs the steps in reverse order, so precompute the masks.
	masksAt := make([][]int, k) // masksAt[j][s]
	for j := 0; j < k; j++ {
		masksAt[j] = make([]int, k)
		acc := 0
		for s := 0; s < k; s++ {
			masksAt[j][s] = acc
			acc |= 1 << ((j + s) % k)
		}
	}
	dims := make([]int, k)
	payloads := make([][]float64, k)
	for s := k - 1; s >= 0; s-- {
		for i := 0; i < k; i++ {
			dims[i] = ds[i]
			payloads[i] = nil
		}
		type recvSlot struct{ tree, slot int }
		var recvs []recvSlot
		for j := 0; j < k; j++ {
			bitIdx := (j + s) % k
			bit := 1 << bitIdx
			before := masksAt[j][s]
			switch {
			case r&^(before|bit) == 0 && r&bit != 0:
				// The broadcast-receiver of step s sends its
				// accumulated piece up the tree.
				payloads[bitIdx] = pieces[j]
			case r&^before == 0:
				recvs = append(recvs, recvSlot{tree: j, slot: bitIdx})
			}
		}
		got := p.ExchangeAll(dims, subTag(tag, s), payloads)
		for _, rs := range recvs {
			if len(got[rs.slot]) != len(pieces[rs.tree]) {
				panic("collective: ReduceAllPort piece length mismatch")
			}
			comb(pieces[rs.tree], got[rs.slot])
			p.Compute(len(pieces[rs.tree]))
			p.Recycle(got[rs.slot])
		}
	}
	if r != 0 {
		return nil
	}
	out := make([]float64, 0, sz*k)
	for j := 0; j < k; j++ {
		out = append(out, pieces[j]...)
	}
	return out
}
