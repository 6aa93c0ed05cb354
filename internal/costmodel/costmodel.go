// Package costmodel defines the machine parameter sets that drive the
// hypercube simulator's virtual clocks.
//
// The SPAA 1989 analysis of the four vector-matrix primitives is
// expressed in three architectural constants: the communication
// start-up time (tau), the per-word transfer time along a cube edge
// (t_c), and the time of a local floating-point operation (t_f). The
// simulator charges every send tau + n*t_c, every local loop n*t_f,
// and reports the maximum virtual clock over all processors as the run
// time. Reproducing the paper therefore reduces to choosing parameter
// sets with 1989-plausible ratios; the presets below give a Connection
// Machine-like machine (large start-up relative to arithmetic, the
// regime in which structured primitives beat the general router by
// almost an order of magnitude), an Intel iPSC-like machine (even
// larger start-up), and an idealized PRAM-ish machine for asymptotic
// checks.
package costmodel

import "fmt"

// Time is simulated machine time in microseconds. All virtual clocks
// and reported experiment timings use this unit.
type Time float64

// Params is the architectural parameter set of a simulated hypercube.
type Params struct {
	// CommStartup is the fixed cost tau of initiating one message on a
	// cube edge, in microseconds.
	CommStartup Time
	// CommPerWord is the transfer time t_c per 64-bit word on a cube
	// edge, in microseconds.
	CommPerWord Time
	// FlopTime is the time t_f of one local floating-point operation,
	// in microseconds.
	FlopTime Time
	// RouteStartup is the per-hop start-up cost of the general router
	// (the "naive" communication substrate). On the Connection Machine
	// the router was substantially more expensive per access than a
	// NEWS/cube-edge transfer; naive implementations pay this on every
	// hop of every routed message batch.
	RouteStartup Time
	// RoutePerWord is the per-word per-hop transfer cost of the
	// general router.
	RoutePerWord Time
	// RoutePerMsg is the per-message handling overhead of the general
	// router (address decode, queueing) paid on every hop for every
	// message forwarded. It is what punishes the naive implementations
	// for not combining messages: routing m one-element messages costs
	// m times this overhead where a structured primitive pays one
	// start-up for the whole block.
	RoutePerMsg Time
	// AllPorts selects the communication port model. When false (the
	// default, and the model of the paper's implementation section) a
	// processor uses one port at a time, so sends on distinct cube
	// dimensions serialize. When true, sends issued in one exchange
	// phase on distinct dimensions overlap and only the largest is
	// charged; this is the ablation A1 machine.
	AllPorts bool
}

// Validate reports an error if any parameter is negative or the model
// could not make progress (all costs zero is allowed: it is the
// "count-only" machine used by some tests).
func (p Params) Validate() error {
	if p.CommStartup < 0 || p.CommPerWord < 0 || p.FlopTime < 0 ||
		p.RouteStartup < 0 || p.RoutePerWord < 0 || p.RoutePerMsg < 0 {
		return fmt.Errorf("costmodel: negative parameter in %+v", p)
	}
	return nil
}

// SendCost returns the virtual-time cost of transmitting n words over
// one cube edge.
func (p Params) SendCost(n int) Time {
	return p.CommStartup + Time(n)*p.CommPerWord
}

// RoutePhaseCost returns the virtual-time cost of one routing phase in
// which a processor forwards msgs messages totalling n words: one
// start-up for the phase, per-word transfer, and per-message handling.
func (p Params) RoutePhaseCost(msgs, n int) Time {
	return p.RouteStartup + Time(n)*p.RoutePerWord + Time(msgs)*p.RoutePerMsg
}

// FlopCost returns the virtual-time cost of n local floating-point
// operations.
func (p Params) FlopCost(n int) Time {
	return Time(n) * p.FlopTime
}

// CM2 returns Connection Machine CM-2-like parameters. The ratios are
// what matter: start-up dominates small transfers (tau/t_c = 25,
// tau/t_f = 100), and the general router costs several times a cube
// edge per hop. These ratios place the primitive-vs-naive gap in the
// "almost an order of magnitude" band the paper reports.
func CM2() Params {
	return Params{
		CommStartup:  100, // microseconds per message start-up
		CommPerWord:  4,
		FlopTime:     1,
		RouteStartup: 200,
		RoutePerWord: 4,
		RoutePerMsg:  2,
	}
}

// IPSC returns Intel iPSC/1-like parameters: very high start-up
// relative to both transfer and arithmetic, the regime in which
// message-combining matters most.
func IPSC() Params {
	return Params{
		CommStartup:  1000,
		CommPerWord:  10,
		FlopTime:     2,
		RouteStartup: 2000,
		RoutePerWord: 10,
		RoutePerMsg:  5,
	}
}

// Ideal returns a machine with unit costs and free start-up. It is
// used for asymptotic property tests, where constant factors would
// obscure the complexity being checked.
func Ideal() Params {
	return Params{
		CommStartup:  0,
		CommPerWord:  1,
		FlopTime:     1,
		RouteStartup: 0,
		RoutePerWord: 1,
		RoutePerMsg:  1,
	}
}

// CountOnly returns the all-zero parameter set: virtual clocks stay at
// zero and only message/flop counters advance. Tests that assert
// communication volumes use it.
func CountOnly() Params { return Params{} }

// WithStartup returns a copy of p with CommStartup set to tau. The
// broadcast and matvec-variant crossover ablations sweep tau this way.
func (p Params) WithStartup(tau Time) Params {
	p.CommStartup = tau
	return p
}

// WithAllPorts returns a copy of p with the port model set.
func (p Params) WithAllPorts(all bool) Params {
	p.AllPorts = all
	return p
}
