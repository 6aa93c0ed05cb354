// Fixtures for the simdeterminism analyzer. These import the real
// standard library (resolved from compiler export data), not stubs.
package det

import (
	"math/rand"
	"runtime"
	"time"

	"vmprim/internal/hypercube"
)

// wallClock reads host time inside the simulation layer.
func wallClock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

// wallSleep waits on host time.
func wallSleep() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

// durations are values, not clock reads: fine.
func watchdogWindow(d time.Duration) time.Duration {
	return 2 * d
}

// globalRand draws from the process-global generator.
func globalRand() float64 {
	return rand.Float64() // want `rand\.Float64 draws from the process-global generator`
}

// seededRand builds an explicit generator: reproducible, allowed.
func seededRand(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// mapOrderSend lets Go's randomized map order decide message order.
func mapOrderSend(p *hypercube.Proc, pending map[int][]float64) {
	for d, words := range pending { // want `map iteration order is nondeterministic and this loop feeds Send`
		p.Send(d, 1, words)
	}
}

// mapOrderSendOwned: moving the buffer instead of copying it changes
// nothing about the order.
func mapOrderSendOwned(p *hypercube.Proc, pending map[int][]float64) {
	for d, words := range pending { // want `map iteration order is nondeterministic and this loop feeds SendOwned`
		p.SendOwned(d, 1, words)
	}
}

// sortedSend iterates a deterministic key slice instead.
func sortedSend(p *hypercube.Proc, pending map[int][]float64, keys []int) {
	for _, d := range keys {
		p.Send(d, 1, pending[d])
	}
}

// mapOrderLocal ranges a map without communicating: out of scope for
// this check (integer folds are order-independent).
func mapOrderLocal(counts map[int]int) int {
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// hostYield times itself against the host scheduler.
func hostYield(p *hypercube.Proc) {
	runtime.Gosched() // want `runtime\.Gosched yields to the host scheduler`
	p.Compute(1)
}

// sharedWriteUnguarded races: every processor's goroutine assigns the
// captured variable concurrently under host-parallel execution.
func sharedWriteUnguarded(m *hypercube.Machine) (float64, int64) {
	var last float64
	var hits int64
	m.Run(func(p *hypercube.Proc) {
		v := p.Exchange(0, 1, []float64{float64(p.ID())})
		last = v[0] // want `write to last, captured from outside the SPMD body, races across processors`
		hits++      // want `write to hits, captured from outside the SPMD body, races across processors`
	})
	return last, hits
}

// sharedWriteGuarded uses the sanctioned one-writer idiom: only the
// root processor assigns.
func sharedWriteGuarded(m *hypercube.Machine) float64 {
	var root float64
	m.Run(func(p *hypercube.Proc) {
		v := p.Exchange(0, 1, []float64{float64(p.ID())})
		if p.ID() == 0 {
			root = v[0]
		}
	})
	return root
}

// sharedWriteIndexed writes a per-processor slot: each goroutine owns
// its own element.
func sharedWriteIndexed(m *hypercube.Machine) []float64 {
	out := make([]float64, 2)
	m.Run(func(p *hypercube.Proc) {
		v := p.Exchange(0, 1, []float64{float64(p.ID())})
		out[p.ID()] = v[0]
	})
	return out
}

// localWrites assign variables declared inside the SPMD body — one per
// processor, no sharing — including from a nested closure.
func localWrites(m *hypercube.Machine) {
	m.Run(func(p *hypercube.Proc) {
		sum := 0.0
		add := func(v float64) { sum += v }
		for i := 0; i < 4; i++ {
			add(float64(i))
		}
		p.Compute(int(sum))
	})
}

// kernelSharedWrite is a named SPMD kernel (first parameter *Proc)
// writing package state: the same race as the literal form.
var kernelCalls int64

func kernelSharedWrite(p *hypercube.Proc) {
	kernelCalls++ // want `write to kernelCalls, captured from outside the SPMD body, races across processors`
	p.Compute(1)
}
