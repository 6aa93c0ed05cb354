// Fixtures for the collorder analyzer: identity-derived structural
// arguments and identity-dependent branches whose arms perform
// different communication sequences.
package corder

import (
	"vmprim/internal/collective"
	"vmprim/internal/hypercube"
)

// DemoDeadlock is the exact shape of `vmprim -demo-deadlock`: control
// flow is identical on every processor, but the exchange dimension is
// computed from the rank, so no two partners agree.
func DemoDeadlock(p *hypercube.Proc) {
	d := (p.ID() & 1) ^ ((p.ID() >> 1) & 1)
	p.Exchange(d, 7, []float64{1, 2}) // want `argument "d" derives from processor identity`
}

// TagByRank: same bug through the tag instead of the dimension.
func TagByRank(p *hypercube.Proc, data []float64) {
	p.Send(0, p.ID(), data) // want `argument "tag" derives from processor identity`
}

// OwnedTagByRank: the ownership-transfer send pairs up like Send.
func OwnedTagByRank(p *hypercube.Proc, data []float64) {
	p.SendOwned(0, p.ID(), data) // want `argument "tag" derives from processor identity`
}

// myDim launders identity through a local helper; the collectives
// summary marks it an identity source.
func myDim(p *hypercube.Proc) int { return p.ID() % 2 }

func HelperDim(p *hypercube.Proc, data []float64) {
	p.Exchange(myDim(p), 7, data) // want `argument "d" derives from processor identity`
}

// EarlyReturn: rank 0 leaves before the broadcast everyone else joins.
func EarlyReturn(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 { // want `communication sequence diverges`
		return
	}
	collective.Bcast(p, 3, 5, 0, data)
}

// DimMismatch: both arms exchange, but on different dimensions.
func DimMismatch(p *hypercube.Proc, data []float64) {
	if p.ID()&1 == 0 { // want `communication sequence diverges`
		p.Exchange(0, 5, data)
	} else {
		p.Exchange(1, 5, data)
	}
}

// SwitchDiverge: an identity-tainted switch whose arms run different
// collectives.
func SwitchDiverge(p *hypercube.Proc, data []float64) {
	switch p.ID() { // want `communication sequence diverges`
	case 0:
		collective.Bcast(p, 3, 2, 0, data)
	default:
		collective.AllGather(p, 3, 2, data)
	}
}

// SymmetricPayloads is fine: the structural arguments agree on both
// arms, only the payload differs — which is the whole point of SPMD.
func SymmetricPayloads(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 {
		collective.AllGather(p, 3, 4, data[:1])
	} else {
		collective.AllGather(p, 3, 4, data[1:])
	}
}

// UniformChoice is fine: the branch does diverge, but its condition is
// rank-independent, so every processor takes the same side.
func UniformChoice(p *hypercube.Proc, big bool, data []float64) {
	if big {
		collective.AllGather(p, 3, 1, data)
	} else {
		collective.Bcast(p, 3, 1, 0, data)
	}
}

// LoopFroth is fine: the rank-0 arm runs a loop full of control flow
// (including a continue) but no communication, so every processor
// still meets the broadcast below in the same position.
func LoopFroth(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 {
		for i := range data {
			if data[i] < 0 {
				continue
			}
			data[i] *= 2
		}
	}
	collective.Bcast(p, 3, 9, 0, data)
}

// FanByRank: the all-port dimension list is built per element, and one
// element reads the rank — the taint walk descends into the composite
// literal, so the whole "dims" argument is identity-derived.
func FanByRank(p *hypercube.Proc, payloads [][]float64) {
	p.ExchangeAll([]int{0, p.ID() & 1}, 2, payloads) // want `ExchangeAll argument "dims" derives from processor identity`
}

// FanVarByRank: the same bug laundered through a local variable; the
// assignment fixpoint carries the taint to the dims slice.
func FanVarByRank(p *hypercube.Proc, payloads [][]float64) {
	dims := []int{p.ID() % 2, 1}
	p.ExchangeAll(dims, 2, payloads) // want `ExchangeAll argument "dims" derives from processor identity`
}

// FanDiverge: both arms fan out over all-port exchanges, but the
// dimension lists differ, so the event sequences cannot be equal.
func FanDiverge(p *hypercube.Proc, payloads [][]float64) {
	if p.ID()&1 == 0 { // want `communication sequence diverges`
		p.ExchangeAll([]int{0, 1}, 2, payloads)
	} else {
		p.ExchangeAll([]int{1, 2}, 2, payloads)
	}
}

// FanUniform is fine: a constant dimension list, per-element payloads.
func FanUniform(p *hypercube.Proc, payloads [][]float64) {
	p.ExchangeAll([]int{0, 1, 2}, 2, payloads)
}

// FanSymmetric is fine: the arms agree on every structural argument of
// the all-port exchange; only the payload slices differ.
func FanSymmetric(p *hypercube.Proc, payloads [][]float64) {
	if p.ID() == 0 {
		p.ExchangeAll([]int{0, 1}, 4, payloads[:1])
	} else {
		p.ExchangeAll([]int{0, 1}, 4, payloads[1:])
	}
}

// OwnerSwitch is fine: the owner-subcube idiom leads with an untainted
// "replicate everywhere" guard; the tainted tail cases perform no
// communication, so the arms cannot fall out of step.
func OwnerSwitch(p *hypercube.Proc, replicate bool, data []float64) {
	switch {
	case replicate:
		collective.Bcast(p, 3, 5, 0, data)
	case p.ID() == 0:
		data[0] = 1
	}
}

// LostSend: only rank 0 sends and nobody receives — a one-sided
// point-to-point op under an identity guard.
func LostSend(p *hypercube.Proc) {
	if p.ID() == 0 { // want `one side runs \[Send\(d=0,tag=4\)\], the other \[nothing\]`
		p.Send(0, 4, nil)
	}
}

// TagSkew: the arms pair a Send with a Recv on the same link but
// disagree on the tag — the runtime panics at the Recv.
func TagSkew(p *hypercube.Proc) {
	if p.ID()&1 == 0 { // want `one side runs \[Send\(d=0,tag=1\)\], the other \[Recv\(d=0,wantTag=2\)\]`
		p.Send(0, 1, nil)
	} else {
		got := p.Recv(0, 2)
		_ = got
	}
}

// LoopByRank: the trip count is the rank, so processor i joins i
// barriers and the others wait for partners that never come.
func LoopByRank(p *hypercube.Proc) {
	for i := 0; i < p.ID(); i++ { // want `identity-dependent loop: processors repeat \[Barrier\(mask=1,tag=1\)\]`
		p.Barrier(1, 1)
	}
}

// WhileByRank: the same bug as a while-loop over a tainted counter.
func WhileByRank(p *hypercube.Proc, data []float64) {
	k := p.ID()
	for k > 0 { // want `identity-dependent loop: processors repeat \[Bcast\(mask=3,tag=6,rootRel=0\)\]`
		collective.Bcast(p, 3, 6, 0, data)
		k--
	}
}

// RangeByRank: ranging over an identity-derived count.
func RangeByRank(p *hypercube.Proc) {
	for range p.ID() { // want `identity-dependent loop: processors repeat \[Barrier\(mask=1,tag=3\)\]`
		p.Barrier(1, 3)
	}
}

// PayloadLoop is fine: the trip count is uniform; only the payload
// each iteration exchanges reads the rank.
func PayloadLoop(p *hypercube.Proc) {
	for i := 0; i < 3; i++ {
		got := p.Exchange(0, 5, []float64{float64(p.ID() + i)})
		p.Recycle(got)
	}
}

// OwnedPartsTagByRank: a message sent in parts pairs up like one sent
// whole.
func OwnedPartsTagByRank(p *hypercube.Proc, parts [][]float64) {
	p.SendOwnedParts(0, p.ID(), parts) // want `SendOwnedParts argument "tag" derives from processor identity`
}

// RecvPartsDimByRank: the receiving side of the same mistake.
func RecvPartsDimByRank(p *hypercube.Proc) [][]float64 {
	return p.RecvParts(p.ID()&1, 3, nil) // want `RecvParts argument "d" derives from processor identity`
}

// OwnedPartsGuarded: only rank 0 sends its parts, so its neighbor's
// receive never pairs.
func OwnedPartsGuarded(p *hypercube.Proc, parts [][]float64) {
	if p.ID() == 0 { // want `communication sequence diverges`
		p.SendOwnedParts(0, 4, parts)
	}
	p.RecvParts(0, 4, nil)
}

// OwnedPartsPaired is fine: every processor sends its parts and
// receives its neighbor's.
func OwnedPartsPaired(p *hypercube.Proc, parts [][]float64) [][]float64 {
	p.SendOwnedParts(0, 4, parts)
	return p.RecvParts(0, 4, nil)
}
