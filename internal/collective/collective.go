// Package collective implements the structured communication
// operations on Boolean subcubes that the four vector-matrix
// primitives are built from: one-to-all broadcast (binomial tree and
// scatter/all-gather for long vectors), reduction (binomial tree,
// recursive-halving reduce-scatter, and all-reduce), gather/scatter,
// all-to-all personalized communication, and parallel prefix (scan).
//
// Every operation works on the subcube spanned by a dimension mask: the
// set of processors whose addresses agree with the caller's outside the
// mask. All processors of a subcube must call the operation together
// with consistent arguments (SPMD). Within a subcube a processor is
// identified by its relative address: its address bits at the mask's
// set positions, compacted so that the lowest masked dimension is bit
// zero (see gray.Compact).
//
// Cost shapes (k = popcount(mask), n = data words, tau = start-up,
// t_c = per-word transfer):
//
//	Bcast        k*(tau + n*t_c)            — latency-optimal
//	BcastLarge   ~2k*tau + 2n*t_c           — bandwidth-optimal, long n
//	Reduce       k*(tau + n*t_c) + k*n flop
//	ReduceScatter/AllGather  k*tau + n*t_c*(1-1/2^k) (+ n flop)
//	AllReduce (halving+doubling) ~2k*tau + 2n*t_c + n flop
//	AllToAll     k*(tau + (n/2)*t_c)
//
// The recursive-halving forms are what make the Reduce and Distribute
// primitives work-optimal for m > p lg p in the SPAA 1989 analysis.
package collective

import (
	"fmt"

	"vmprim/internal/costmodel"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

// A Combiner merges src into dst elementwise; len(dst) == len(src).
// Combiners must be associative and commutative up to floating-point
// rounding; collectives apply them in a fixed dimension order so
// distributed results are deterministic run-to-run.
type Combiner func(dst, src []float64)

// Sum adds src into dst.
func Sum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Prod multiplies dst by src.
func Prod(dst, src []float64) {
	for i, v := range src {
		dst[i] *= v
	}
}

// Max keeps the elementwise maximum in dst.
func Max(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Min keeps the elementwise minimum in dst.
func Min(dst, src []float64) {
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

// The *Loc combiners operate on (value, index) pairs packed as
// consecutive words: data[2i] is the value, data[2i+1] the index. Ties
// resolve to the smaller index, matching the pivot-selection and
// ratio-test semantics of Gaussian elimination and simplex.

// MaxLoc keeps the pair with the larger value (smaller index on ties).
func MaxLoc(dst, src []float64) {
	for i := 0; i+1 < len(src); i += 2 {
		if src[i] > dst[i] || (src[i] == dst[i] && src[i+1] < dst[i+1]) {
			dst[i], dst[i+1] = src[i], src[i+1]
		}
	}
}

// MinLoc keeps the pair with the smaller value (smaller index on ties).
func MinLoc(dst, src []float64) {
	for i := 0; i+1 < len(src); i += 2 {
		if src[i] < dst[i] || (src[i] == dst[i] && src[i+1] < dst[i+1]) {
			dst[i], dst[i+1] = src[i], src[i+1]
		}
	}
}

// rel returns the caller's relative address within the masked subcube.
func rel(p *hypercube.Proc, mask int) int {
	return gray.Compact(p.ID(), mask)
}

// subTag derives a distinct protocol tag for step s of a collective
// invoked with base tag.
func subTag(tag, s int) int { return tag<<6 | s }

// Bcast broadcasts data from the subcube member with relative address
// rootRel to all members, using a binomial spanning tree rooted there:
// k = popcount(mask) communication steps of the full payload. Every
// member returns its own copy (the root returns data itself).
func Bcast(p *hypercube.Proc, mask, tag, rootRel int, data []float64) []float64 {
	p.BeginSpan("bcast")
	defer p.EndSpan()
	p.NoteCollective("bcast", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() {
		// Only the root's data length is authoritative; non-roots may
		// pass nil, predicting 0 — conformance takes the max over procs.
		p.SpanPredict(costmodel.PredictBcast(p.Params(), k, len(data)))
	}
	r := rel(p, mask) ^ rootRel // address relative to the root
	holds := r == 0
	var buf []float64
	if holds {
		buf = data
	}
	// Steps descend so that before step i the holders are exactly the
	// processors whose relative address has no bits at positions <= i;
	// each holder forwards along dimension ds[i] to the processor one
	// bit-i flip away.
	for i := k - 1; i >= 0; i-- {
		low := r & ((1 << (i + 1)) - 1)
		switch {
		case low == 0 && holds:
			p.Send(ds[i], subTag(tag, i), buf)
		case low == 1<<i:
			buf = p.Recv(ds[i], subTag(tag, i))
			holds = true
		}
	}
	if !holds {
		panic("collective: Bcast finished without data (inconsistent rootRel?)")
	}
	if r == 0 {
		// Hand the root a private copy too, so all returns are alias-free.
		cp := p.GetBuf(len(buf))
		copy(cp, buf)
		return cp
	}
	return buf
}

// BcastLarge broadcasts data from rootRel using the bandwidth-optimal
// scatter/all-gather scheme: the payload is scattered into 2^k pieces
// down the binomial tree, then all-gathered by recursive doubling.
// Total transfer volume per link is O(n/2 + n/4 + ...) so the time is
// about 2*k*tau + 2*n*t_c, beating Bcast's k*n*t_c once n*t_c >> tau.
// len(data) must be divisible by 2^k.
func BcastLarge(p *hypercube.Proc, mask, tag, rootRel int, data []float64) []float64 {
	p.BeginSpan("bcast-large")
	defer p.EndSpan()
	p.NoteCollective("bcast-large", mask, tag)
	k := gray.OnesCount(mask)
	if p.Profiling() && k > 0 && len(data)%(1<<k) == 0 {
		p.SpanPredict(costmodel.PredictScatter(p.Params(), k, len(data), 2) +
			costmodel.PredictAllGather(p.Params(), k, len(data)>>uint(k)))
	}
	if k == 0 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	if len(data)%(1<<k) != 0 {
		panic(fmt.Sprintf("collective: BcastLarge length %d not divisible by %d", len(data), 1<<k))
	}
	piece := Scatter(p, mask, tag, rootRel, data)
	out := AllGather(p, mask, tag+1, piece)
	p.Recycle(piece)
	return out
}

// Reduce combines data across the subcube with comb, delivering the
// full combined vector to the member with relative address rootRel,
// which receives it as the return value; all other members return nil.
// It is the mirror image of Bcast: a binomial tree with combining at
// every internal node.
func Reduce(p *hypercube.Proc, mask, tag, rootRel int, data []float64, comb Combiner) []float64 {
	p.BeginSpan("reduce")
	defer p.EndSpan()
	p.NoteCollective("reduce", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() {
		p.SpanPredict(costmodel.PredictReduce(p.Params(), k, len(data)))
	}
	r := rel(p, mask) ^ rootRel
	acc := p.GetBuf(len(data))
	copy(acc, data)
	for i := 0; i < k; i++ {
		low := r & ((1 << (i + 1)) - 1)
		switch {
		case low == 0:
			src := p.Recv(ds[i], subTag(tag, i))
			comb(acc, src)
			p.Compute(len(acc))
			p.Recycle(src)
		case low == 1<<i:
			p.SendOwned(ds[i], subTag(tag, i), acc)
			acc = nil
			// This processor's part is done; it holds no data.
			i = k
		}
	}
	if r == 0 {
		return acc
	}
	return nil
}

// ReduceScatter combines data across the subcube by recursive halving
// and leaves each member with one 1/2^k slice of the combined vector:
// the member with relative address r gets the slice starting at offset
// r*(len/2^k). It returns the slice, in a pooled buffer of its own,
// and its offset. len(data) must be divisible by 2^k. Message sizes
// halve every step, which is the source of the primitives' asymptotic
// work-optimality.
func ReduceScatter(p *hypercube.Proc, mask, tag int, data []float64, comb Combiner) (piece []float64, offset int) {
	p.BeginSpan("reduce-scatter")
	defer p.EndSpan()
	p.NoteCollective("reduce-scatter", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() {
		p.SpanPredict(costmodel.PredictReduceScatter(p.Params(), k, len(data)))
	}
	if len(data)%(1<<k) != 0 {
		panic(fmt.Sprintf("collective: ReduceScatter length %d not divisible by %d", len(data), 1<<k))
	}
	r := rel(p, mask)
	work := p.GetBuf(len(data))
	copy(work, data)
	cur := work
	for i := k - 1; i >= 0; i-- {
		half := len(cur) / 2
		var keep, send []float64
		if r&(1<<i) == 0 {
			keep, send = cur[:half], cur[half:]
		} else {
			keep, send = cur[half:], cur[:half]
			offset += half
		}
		got := p.Exchange(ds[i], subTag(tag, i), send)
		comb(keep, got)
		p.Compute(half)
		p.Recycle(got)
		cur = keep
	}
	// The piece may be a tail of work, which Recycle would file a class
	// too small: hand it back in a buffer of its own.
	piece = p.GetBuf(len(cur))
	copy(piece, cur)
	p.Recycle(work)
	return piece, offset
}

// AllGather concatenates the members' pieces by recursive doubling so
// that every member ends with the full vector ordered by relative
// address: member r's input occupies the r-th slot. All pieces must
// have equal length (checked during the exchanges).
func AllGather(p *hypercube.Proc, mask, tag int, piece []float64) []float64 {
	p.BeginSpan("all-gather")
	defer p.EndSpan()
	p.NoteCollective("all-gather", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	if p.Profiling() {
		p.SpanPredict(costmodel.PredictAllGather(p.Params(), len(ds), len(piece)))
	}
	r := rel(p, mask)
	buf := p.GetBuf(len(piece))
	copy(buf, piece)
	for i := 0; i < len(ds); i++ {
		got := p.Exchange(ds[i], subTag(tag, i), buf)
		if len(got) != len(buf) {
			panic("collective: AllGather piece length mismatch")
		}
		merged := p.GetBuf(2 * len(buf))
		if r&(1<<i) == 0 {
			copy(merged, buf)
			copy(merged[len(buf):], got)
		} else {
			copy(merged, got)
			copy(merged[len(got):], buf)
		}
		p.Recycle(got)
		p.Recycle(buf)
		buf = merged
	}
	return buf
}

// AllReduce combines data across the subcube and delivers the full
// result to every member. For short vectors it uses k exchange-and-
// combine steps on the whole payload (recursive doubling); for long
// vectors it switches to reduce-scatter + all-gather, which moves
// about 2n words instead of k*n. The switch point is where the
// modelled costs cross.
func AllReduce(p *hypercube.Proc, mask, tag int, data []float64, comb Combiner) []float64 {
	p.BeginSpan("all-reduce")
	defer p.EndSpan()
	p.NoteCollective("all-reduce", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() {
		p.SpanPredict(costmodel.PredictAllReduce(p.Params(), k, len(data)))
	}
	n := len(data)
	if p.Params().PreferTwoPhase(k, n) {
		piece, _ := ReduceScatter(p, mask, tag, data, comb)
		out := AllGather(p, mask, tag+1, piece)
		p.Recycle(piece)
		return out
	}
	acc := p.GetBuf(n)
	copy(acc, data)
	for i := 0; i < k; i++ {
		got := p.Exchange(ds[i], subTag(tag, i), acc)
		comb(acc, got)
		p.Compute(n)
		p.Recycle(got)
	}
	return acc
}

// Gather concatenates the members' equal-length pieces at the member
// with relative address rootRel, ordered by relative address; the root
// returns the assembled vector in a pooled buffer, everyone else nil.
//
// The pieces climb the binomial tree toward the root as segments of a
// two-word header (relative address, length) and the words. Let x be
// a member's address XOR rootRel, and 2^i its lowest set bit (2^k at
// the root). The member gathers the 2^i segments of its subtree in
// slot order, slot s holding the segment of the member at x+s: it
// appends each child's message, which is that child's whole subtree,
// to its own buffer, and sends the lot at step i. Only the root reads
// the headers.
func Gather(p *hypercube.Proc, mask, tag, rootRel int, piece []float64) []float64 {
	p.BeginSpan("gather")
	defer p.EndSpan()
	p.NoteCollective("gather", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() {
		p.SpanPredict(costmodel.PredictGather(p.Params(), k, len(piece), 2))
	}
	r := rel(p, mask) ^ rootRel
	slots := 1 << k // the segments this member gathers
	if r != 0 {
		slots = r & -r
	}
	seg := 2 + len(piece)
	buf := p.GetBuf(slots * seg)[:seg]
	buf[0], buf[1] = float64(r^rootRel), float64(len(piece))
	copy(buf[2:], piece)
	for i := 0; i < k; i++ {
		switch r & (1<<(i+1) - 1) {
		case 1 << i:
			p.SendOwned(ds[i], subTag(tag, i), buf)
			return nil
		case 0:
			got := p.Recv(ds[i], subTag(tag, i))
			buf = append(buf, got...)
			p.Recycle(got)
		}
	}
	out := p.GetBuf(len(buf) - 2<<k)
	for j := 0; j < len(buf); j += seg {
		copy(out[int(buf[j])*len(piece):], buf[j+2:j+seg])
	}
	p.Recycle(buf)
	return out
}

// Scatter distributes the root's vector so that the member with
// relative address r receives the r-th of 2^k equal slices. Only the
// root's data argument is consulted; len must be divisible by 2^k.
//
// The root lays the slices out once as segments of a two-word header
// (relative address, length) and the words, in slot order: slot s is
// the segment of the member whose relative address is s XOR rootRel.
// Walking the binomial tree down, a holder at step i holds the 2^(i+1)
// slots of its subtree and forwards the upper half, its neighbor's
// subtree, with Send; each member's own segment ends in its slot 0.
func Scatter(p *hypercube.Proc, mask, tag, rootRel int, data []float64) []float64 {
	p.BeginSpan("scatter")
	defer p.EndSpan()
	p.NoteCollective("scatter", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if p.Profiling() {
		// Non-roots pass nil data and predict 0; the root's prediction
		// carries the conformance entry via the max over processors.
		p.SpanPredict(costmodel.PredictScatter(p.Params(), k, len(data), 2))
	}
	r := rel(p, mask) ^ rootRel
	var buf []float64
	if r == 0 {
		if len(data)%(1<<k) != 0 {
			panic(fmt.Sprintf("collective: Scatter length %d not divisible by %d", len(data), 1<<k))
		}
		sz := len(data) >> k
		buf = p.GetBuf((2 + sz) << k)
		for s, seg := 0, buf; s < 1<<k; s, seg = s+1, seg[2+sz:] {
			dest := s ^ rootRel
			seg[0], seg[1] = float64(dest), float64(sz)
			copy(seg[2:2+sz], data[dest*sz:])
		}
	}
	for i := k - 1; i >= 0; i-- {
		switch r & (1<<(i+1) - 1) {
		case 0:
			half := len(buf) / 2
			p.Send(ds[i], subTag(tag, i), buf[half:])
			buf = buf[:half]
		case 1 << i:
			buf = p.Recv(ds[i], subTag(tag, i))
		}
	}
	out := p.GetBuf(len(buf) - 2)
	copy(out, buf[2:])
	p.Recycle(buf)
	return out
}

// AllToAll performs all-to-all personalized communication: out[j] is
// this member's payload for the member with relative address j, and
// the returned slice's j-th entry is the payload from member j. All
// payloads must have equal length. The pairwise-exchange algorithm
// moves half of the local volume in each of the k steps.
func AllToAll(p *hypercube.Proc, mask, tag int, out [][]float64) [][]float64 {
	p.BeginSpan("all-to-all")
	defer p.EndSpan()
	p.NoteCollective("all-to-all", mask, tag)
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	k := len(ds)
	if len(out) != 1<<k {
		panic(fmt.Sprintf("collective: AllToAll needs %d payloads, got %d", 1<<k, len(out)))
	}
	if p.Profiling() && len(out) > 0 {
		p.SpanPredict(costmodel.PredictAllToAll(p.Params(), k, len(out[0])))
	}
	r := rel(p, mask)
	sz := -1
	cur := make([][]float64, len(out))
	for j, w := range out {
		if sz < 0 {
			sz = len(w)
		} else if len(w) != sz {
			panic("collective: AllToAll payloads must have equal length")
		}
		cur[j] = append([]float64(nil), w...)
	}
	slots := make([]int, 0, len(cur)/2)
	for i := 0; i < k; i++ {
		// Exchange the slots whose index bit i differs from ours.
		flat := p.GetBuf((len(cur) / 2) * sz)[:0]
		slots = slots[:0]
		for j := range cur {
			if j>>i&1 != r>>i&1 {
				flat = append(flat, cur[j]...)
				slots = append(slots, j)
			}
		}
		sent := len(flat)
		p.SendOwned(ds[i], subTag(tag, i), flat)
		got := p.Recv(ds[i], subTag(tag, i))
		if len(got) != sent {
			panic("collective: AllToAll volume mismatch")
		}
		for si, j := range slots {
			copy(cur[j], got[si*sz:(si+1)*sz])
		}
		p.Recycle(got)
	}
	return cur
}

// ScanInclusive computes, for the member with relative address r, the
// combination of the inputs of members 0..r (inclusive), using the
// classic hypercube prefix algorithm: k exchange steps carrying the
// running subcube total alongside the prefix.
func ScanInclusive(p *hypercube.Proc, mask, tag int, data []float64, comb Combiner) []float64 {
	p.BeginSpan("scan")
	defer p.EndSpan()
	p.NoteCollective("scan", mask, tag)
	return scan(p, mask, tag, data, data, comb)
}

// ScanExclusive is ScanInclusive shifted by one member: member r
// receives the combination of members 0..r-1, and member 0 receives
// identity (which the caller supplies, since the combiner's identity
// is not known here).
func ScanExclusive(p *hypercube.Proc, mask, tag int, data, identity []float64, comb Combiner) []float64 {
	p.BeginSpan("scan-exclusive")
	defer p.EndSpan()
	p.NoteCollective("scan-exclusive", mask, tag)
	return scan(p, mask, tag, data, identity, comb)
}

// scan is the prefix loop of both scans: the prefix starts as start
// (the member's own data, or the identity) and takes in the running
// total of every lower half of the subcube.
func scan(p *hypercube.Proc, mask, tag int, data, start []float64, comb Combiner) []float64 {
	var dimBuf [hypercube.MaxDim]int
	ds := gray.AppendDims(dimBuf[:0], mask)
	if p.Profiling() {
		p.SpanPredict(costmodel.PredictScan(p.Params(), len(ds), len(data)))
	}
	r := rel(p, mask)
	prefix := p.GetBuf(len(start))
	copy(prefix, start)
	total := p.GetBuf(len(data))
	copy(total, data)
	for i := 0; i < len(ds); i++ {
		got := p.Exchange(ds[i], subTag(tag, i), total)
		if r>>i&1 == 1 {
			comb(prefix, got)
			p.Compute(len(prefix))
		}
		comb(total, got)
		p.Compute(len(total))
		p.Recycle(got)
	}
	p.Recycle(total)
	return prefix
}
