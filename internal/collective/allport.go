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
//
// Both directions keep the pieces in slot order in one pooled buffer
// of n words, piece j in words [j*n/k, (j+1)*n/k). A step hands
// ExchangeAll the subcube's dimensions as they are, with the piece
// tree j sends in the slot of the dimension tree j crosses and nil (an
// empty message) in the others.

// rotatedStep returns the port (index into the subcube's dimensions)
// that tree j of the rotated schedule over k dimensions crosses at
// broadcast step s, whether member r (relative to the root) holds tree
// j's piece before the step, and whether it first receives it at the
// step. A reduction runs the steps backwards: the first receivers send
// and the holders combine.
func rotatedStep(r, j, s, k int) (port int, holds, first bool) {
	port = (j + s) % k
	before := (1<<s - 1) << j // the rel bits tree j crossed before step s
	before = (before | before>>k) & (1<<k - 1)
	return port, r&^before == 0, r&^before == 1<<port
}

// piece returns slot j of buf's k equal slots.
func piece(buf []float64, j, k int) []float64 {
	return buf[j*len(buf)/k : (j+1)*len(buf)/k]
}

// BcastAllPort broadcasts data from the subcube member with relative
// address rootRel using k rotated edge-disjoint binomial trees.
// len(data) must be divisible by k (and may be zero). Every member
// returns its own pooled copy; a non-root learns the piece size from
// the first piece it receives and files each piece in its slot.
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
	r := rel(p, mask) ^ rootRel
	var out []float64
	if r == 0 {
		if k > 0 && len(data)%k != 0 {
			panic(fmt.Sprintf("collective: BcastAllPort length %d not divisible by %d trees", len(data), k))
		}
		out = p.GetBuf(len(data))
		copy(out, data)
	}
	var payBuf [hypercube.MaxDim][]float64
	payloads := payBuf[:k]
	for s := 0; s < k; s++ {
		clear(payloads)
		for j := 0; j < k; j++ {
			if port, holds, _ := rotatedStep(r, j, s, k); holds {
				payloads[port] = piece(out, j, k)
			}
		}
		got := p.ExchangeAll(ds, subTag(tag, s), payloads)
		for j := 0; j < k; j++ {
			if port, _, first := rotatedStep(r, j, s, k); first {
				if out == nil {
					out = p.GetBuf(len(got[port]) * k)
				}
				copy(piece(out, j, k), got[port])
			}
		}
		for i := range got {
			p.Recycle(got[i])
		}
	}
	return out
}

// ReduceAllPort combines data across the subcube with comb and
// delivers the full combined vector to the member with relative
// address rootRel, using the time-reversed rotated-tree schedule of
// BcastAllPort: piece j of every member's contribution climbs tree j
// toward the root, combining at every internal node, and the k trees
// use k distinct dimensions at every step. On the all-port machine the
// cost is about k*tau + n*t_c (+ n flops of combining) versus the
// binomial tree's k*tau + k*n*t_c. Non-roots return nil. len(data)
// must be divisible by k on every member. Each member combines into
// its own pooled copy of data, slot j holding piece j.
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
	if k > 0 && len(data)%k != 0 {
		panic(fmt.Sprintf("collective: ReduceAllPort length %d not divisible by %d trees", len(data), k))
	}
	r := rel(p, mask) ^ rootRel
	acc := p.GetBuf(len(data))
	copy(acc, data)
	var payBuf [hypercube.MaxDim][]float64
	payloads := payBuf[:k]
	for s := k - 1; s >= 0; s-- {
		clear(payloads)
		for j := 0; j < k; j++ {
			if port, _, first := rotatedStep(r, j, s, k); first {
				payloads[port] = piece(acc, j, k)
			}
		}
		got := p.ExchangeAll(ds, subTag(tag, s), payloads)
		for j := 0; j < k; j++ {
			if port, holds, _ := rotatedStep(r, j, s, k); holds {
				pc := piece(acc, j, k)
				if len(got[port]) != len(pc) {
					panic("collective: ReduceAllPort piece length mismatch")
				}
				comb(pc, got[port])
				p.Compute(len(pc))
			}
		}
		for i := range got {
			p.Recycle(got[i])
		}
	}
	if r != 0 {
		p.Recycle(acc)
		return nil
	}
	return acc
}
