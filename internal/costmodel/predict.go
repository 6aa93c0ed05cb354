package costmodel

// Analytic completion-time predictors for the structured collectives,
// used by the critical-path tracer's conformance report: each
// collective records, at entry, what the cost model says its slowest
// participant should need, and the report compares that against the
// measured virtual time. The formulas mirror the protocols in
// internal/collective step for step (the cost shapes documented in
// that package's comment), so on a run that matches the model —
// simultaneous entry, no upstream skew — the measured/predicted ratio
// is 1.0 and any sustained excess is divergence worth explaining:
// entry skew, congestion, or a protocol regression.
//
// Throughout, k is the subcube dimension (popcount of the mask) and n
// a payload length in words; what n means per collective matches the
// corresponding function in internal/collective.

// PredictBcast is the binomial-tree broadcast of n words over a
// k-dimensional subcube: k serialized full-payload sends, and every
// participant (root and leaves alike) finishes after exactly k steps.
func PredictBcast(p Params, k, n int) Time {
	return Time(k) * p.SendCost(n)
}

// PredictReduce is the binomial-tree reduction: the root's chain is k
// receive-and-combine steps, each one message of n words plus n
// combining flops.
func PredictReduce(p Params, k, n int) Time {
	return Time(k) * (p.SendCost(n) + p.FlopCost(n))
}

// PredictReduceScatter is recursive halving: step i exchanges and
// combines n/2^(i+1) words, so the payload terms telescope to
// n*(1-1/2^k) while the k start-ups remain.
func PredictReduceScatter(p Params, k, n int) Time {
	if k == 0 {
		return 0
	}
	frac := 1 - 1/float64(int64(1)<<uint(k))
	return Time(k)*p.CommStartup +
		Time(float64(n)*frac*float64(p.CommPerWord+p.FlopTime))
}

// PredictAllGather is recursive doubling from a piece-word slice per
// member: step i exchanges piece*2^i words, summing to piece*(2^k-1).
func PredictAllGather(p Params, k, piece int) Time {
	if k == 0 {
		return 0
	}
	words := int64(piece) * (int64(1)<<uint(k) - 1)
	return Time(k)*p.CommStartup + Time(words)*p.CommPerWord
}

// PreferTwoPhase reports whether moving n words over a k-dimensional
// subcube in two phases (scatter or reduce-scatter, then all-gather:
// 2k*tau + 2n*t_c) is modelled strictly cheaper than k whole-payload
// steps (k*(tau + n*t_c)); a tie keeps the k steps. The two phases
// split the payload in 2^k slices, so n must be a positive multiple.
func (p Params) PreferTwoPhase(k, n int) bool {
	if k <= 0 || n <= 0 || n%(1<<uint(k)) != 0 {
		return false
	}
	tree := float64(k) * (float64(p.CommStartup) + float64(n)*float64(p.CommPerWord))
	split := 2*float64(k)*float64(p.CommStartup) + 2*float64(n)*float64(p.CommPerWord)
	return split < tree
}

// PredictAllReduce mirrors collective.AllReduce's own algorithm
// switch: recursive doubling (k full-payload exchange-and-combine
// steps) unless halving+doubling is modelled cheaper and the length
// divides, exactly the rule the implementation applies.
func PredictAllReduce(p Params, k, n int) Time {
	if p.PreferTwoPhase(k, n) {
		return PredictReduceScatter(p, k, n) + PredictAllGather(p, k, n>>uint(k))
	}
	return Time(k) * (p.SendCost(n) + p.FlopCost(n))
}

// PredictScatter is the binomial-tree scatter of n total payload words
// from the root, counting the hdr header words the implementation
// prefixes to each of the 2^k segments: the deepest leaf's chain (and
// the root's serial send sequence — they coincide) moves n*(1-1/2^k)
// payload words plus headers for 2(2^k-1) forwarded segments over k
// start-ups.
func PredictScatter(p Params, k, n, hdr int) Time {
	if k == 0 {
		return 0
	}
	frac := 1 - 1/float64(int64(1)<<uint(k))
	hdrWords := float64(hdr) * 2 * float64(int64(1)<<uint(k)-1)
	return Time(k)*p.CommStartup +
		Time((float64(n)*frac+hdrWords)*float64(p.CommPerWord))
}

// PredictGather is the mirror image of PredictScatter: piece words per
// member flow up the same tree, so the chain volume is identical with
// n = piece*2^k.
func PredictGather(p Params, k, piece, hdr int) Time {
	return PredictScatter(p, k, piece*(1<<uint(k)), hdr)
}

// PredictAllToAll is pairwise exchange with per-member payloads of sz
// words: each of the k steps moves half of the 2^k slots.
func PredictAllToAll(p Params, k, sz int) Time {
	if k == 0 {
		return 0
	}
	words := int64(sz) * (int64(1) << uint(k-1))
	return Time(k) * p.SendCost(int(words))
}

// PredictScan is the hypercube prefix: k full-payload exchanges, and
// the highest-address member combines both the running total and its
// prefix every step (2n flops).
func PredictScan(p Params, k, n int) Time {
	return Time(k) * (p.SendCost(n) + p.FlopCost(2*n))
}

// PredictBcastAllPort is the rotated-tree all-port broadcast: k steps,
// each charged one start-up plus one n/k-word piece because the k
// trees drive distinct ports concurrently. Only meaningful under
// AllPorts — on a one-port machine the schedule serializes and the
// collective deliberately records no prediction.
func PredictBcastAllPort(p Params, k, n int) Time {
	if k == 0 {
		return 0
	}
	return Time(k) * p.SendCost(n/k)
}

// PredictReduceAllPort adds the per-step piece combining to the
// all-port schedule of PredictBcastAllPort.
func PredictReduceAllPort(p Params, k, n int) Time {
	if k == 0 {
		return 0
	}
	return Time(k) * (p.SendCost(n/k) + p.FlopCost(n/k))
}

// PredictRoute is the congestion-free model of one dimension-ordered
// routing operation for a processor injecting msgs messages totalling
// words payload words (hdr wire-header words per message): under
// uniform traffic each of the dims phases forwards about half the
// local volume, paying the router's phase charge plus the link
// transfer of the flattened batch. Hot-spot traffic concentrates far
// more than half the volume on some processors, which is exactly the
// divergence the conformance report exists to surface — the paper's
// router-vs-primitive gap as a per-run measurement.
func PredictRoute(p Params, dims, msgs, words, hdr int) Time {
	mh := float64(msgs) / 2
	wh := float64(words) / 2
	perPhase := float64(p.RouteStartup) + wh*float64(p.RoutePerWord) + mh*float64(p.RoutePerMsg) +
		float64(p.CommStartup) + (wh+mh*float64(hdr))*float64(p.CommPerWord)
	return Time(float64(dims) * perPhase)
}
