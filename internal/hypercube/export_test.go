package hypercube

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Schedule is a legal execution of a run, for the schedule-independence
// test (schedule_test.go): the order queued processors run in — "fifo"
// (production), "lifo" (the last queued first) or "random" (from a
// generator seeded with Seed on each machine) — and the messages a link
// holds, LinkCap (0 keeps linkCap(dim)). With Poison the machine fills
// its scratch arena with NaN at the end of every Run that used it, so a
// result read from a temporary's storage after its Run, or storage
// handed out without zeroing, shows in what the run computes.
type Schedule struct {
	Policy  string
	Seed    uint64
	LinkCap int
	Poison  bool
}

func (s Schedule) String() string {
	name, c := s.Policy, "linkcap"
	if s.Policy == "random" {
		name += fmt.Sprint(s.Seed)
	}
	if s.LinkCap > 0 {
		c = fmt.Sprintf("cap%d", s.LinkCap)
	}
	return name + "-" + c
}

// Apply puts m, which has not run yet, under s.
func (s Schedule) Apply(m *Machine) {
	if s.LinkCap > 0 {
		m.store.cap = int32(s.LinkCap)
	}
	if s.Poison {
		m.scratchDone = poison
	}
	if m.eng == nil {
		m.start()
	}
	switch mask := len(m.eng.queue) - 1; s.Policy {
	case "fifo":
		m.eng.pick = nil
	case "lifo":
		// Put the newest entry in front of the oldest; the ring keeps
		// its length, so the newest's old slot drops out.
		m.eng.pick = func(e *engine) {
			newest := e.queue[(e.qhead+e.qlen-1)&mask]
			e.qhead = (e.qhead - 1) & mask
			e.queue[e.qhead] = newest
		}
	case "random":
		rng := rand.New(rand.NewPCG(s.Seed, 0))
		m.eng.pick = func(e *engine) {
			i := (e.qhead + rng.IntN(e.qlen)) & mask
			e.queue[e.qhead], e.queue[i] = e.queue[i], e.queue[e.qhead]
		}
	default:
		panic("hypercube: unknown schedule policy " + s.Policy)
	}
}

// SetSchedule makes every machine New builds run under s until restore
// is called, for workloads that build their own machines. A test that
// calls it must not run in parallel with other tests that build
// machines.
func SetSchedule(s Schedule) (restore func()) {
	prev := testSched
	testSched = s.Apply
	return func() { testSched = prev }
}

// poison fills words with NaN.
func poison(words []float64) {
	for i := range words {
		words[i] = math.NaN()
	}
}
