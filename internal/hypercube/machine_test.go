package hypercube

import (
	"strings"
	"testing"
	"time"

	"vmprim/internal/costmodel"
	"vmprim/internal/obs"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, costmodel.Ideal()); err == nil {
		t.Fatal("negative dim accepted")
	}
	if _, err := New(21, costmodel.Ideal()); err == nil {
		t.Fatal("huge dim accepted")
	}
	bad := costmodel.Ideal()
	bad.FlopTime = -1
	if _, err := New(3, bad); err == nil {
		t.Fatal("bad params accepted")
	}
	m, err := New(0, costmodel.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	if m.P() != 1 || m.Dim() != 0 {
		t.Fatalf("P=%d Dim=%d", m.P(), m.Dim())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(-1) did not panic")
		}
	}()
	MustNew(-1, costmodel.Ideal())
}

func TestRunAllProcsExecute(t *testing.T) {
	m := MustNew(4, costmodel.Ideal())
	hits := make([]bool, m.P())
	if _, err := m.Run(func(p *Proc) { hits[p.ID()] = true }); err != nil {
		t.Fatal(err)
	}
	for pid, h := range hits {
		if !h {
			t.Fatalf("processor %d did not run", pid)
		}
	}
}

func TestNeighborExchange(t *testing.T) {
	m := MustNew(3, costmodel.Ideal())
	got := make([]float64, m.P())
	_, err := m.Run(func(p *Proc) {
		// Every processor sends its id along dimension 1 and records
		// what it receives: must be the neighbor's id.
		out := p.Exchange(1, 7, []float64{float64(p.ID())})
		got[p.ID()] = out[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := range got {
		if int(got[pid]) != pid^2 {
			t.Fatalf("proc %d received %v, want %d", pid, got[pid], pid^2)
		}
	}
}

func TestSendRecvClockAdvance(t *testing.T) {
	params := costmodel.Params{CommStartup: 10, CommPerWord: 2, FlopTime: 1}
	m := MustNew(1, params)
	var clock0, clock1 costmodel.Time
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(5)                     // clock = 5
			p.Send(0, 1, []float64{1, 2, 3}) // +10+6 -> 21
			clock0 = p.Clock()
		} else {
			p.Recv(0, 1) // arrives at 21
			clock1 = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock0 != 21 {
		t.Fatalf("sender clock %v, want 21", clock0)
	}
	if clock1 != 21 {
		t.Fatalf("receiver clock %v, want 21", clock1)
	}
	if m.Elapsed() != 21 {
		t.Fatalf("elapsed %v, want 21", m.Elapsed())
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	params := costmodel.Params{CommStartup: 1, FlopTime: 1}
	m := MustNew(1, params)
	var clock1 costmodel.Time
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(0, 1, nil) // arrives at t=1
		} else {
			p.Compute(100) // clock 100 before the receive
			p.Recv(0, 1)
			clock1 = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock1 != 100 {
		t.Fatalf("receiver clock %v, want 100 (no rewind)", clock1)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	var received []float64
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			buf := []float64{42}
			p.Send(0, 1, buf)
			buf[0] = -1 // must not affect the in-flight message
		} else {
			received = p.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if received[0] != 42 {
		t.Fatalf("received %v, want 42: payload aliased", received[0])
	}
}

func TestTagMismatchPanics(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(0, 1, nil)
		} else {
			p.Recv(0, 2)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("err = %v, want tag mismatch", err)
	}
}

func TestPanicPropagatesWithProcID(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 3 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 3") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortUnblocksBlockedReceivers(t *testing.T) {
	// Processor 0 panics; everyone else is blocked in Recv. The run
	// must finish promptly and report the original panic, not a
	// deadlock.
	m := MustNew(3, costmodel.Ideal())
	start := time.Now()
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			panic("original failure")
		}
		p.Recv(0, 9) // never satisfied
	})
	if err == nil || !strings.Contains(err.Error(), "original failure") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("abort did not unblock receivers promptly")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Recv(0, 1) // nobody sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestMachineReusableAfterError(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(0, 5, []float64{1}) // left in flight: run aborts
			panic("first run fails")
		}
	})
	if err == nil {
		t.Fatal("expected first run to fail")
	}
	// Second run must not see the stale message from the first.
	_, err = m.Run(func(p *Proc) {
		out := p.Exchange(0, 6, []float64{float64(p.ID())})
		if int(out[0]) != p.ID()^1 {
			panic("stale message leaked between runs")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierEqualizesClocks(t *testing.T) {
	params := costmodel.Params{CommStartup: 1, FlopTime: 1}
	m := MustNew(3, params)
	clocks := make([]costmodel.Time, m.P())
	_, err := m.Run(func(p *Proc) {
		p.Compute(p.ID() * 10) // skewed clocks
		p.Barrier(p.FullMask(), 99)
		clocks[p.ID()] = p.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 1; pid < m.P(); pid++ {
		if clocks[pid] != clocks[0] {
			t.Fatalf("clocks not equalized: %v", clocks)
		}
	}
	// Max pre-barrier clock is 70; the barrier itself costs 3 startups.
	if clocks[0] < 70 {
		t.Fatalf("barrier clock %v below straggler clock", clocks[0])
	}
}

func TestStatsCounting(t *testing.T) {
	m := MustNew(1, costmodel.CountOnly())
	_, err := m.Run(func(p *Proc) {
		p.Compute(7)
		p.Exchange(0, 1, []float64{1, 2, 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.Messages != 2 || st.Words != 6 || st.Flops != 14 {
		t.Fatalf("stats = %+v, want 2 msgs, 6 words, 14 flops", st)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Messages: 1, Words: 2, Flops: 3}
	a.Add(Stats{Messages: 10, Words: 20, Flops: 30})
	if a.Messages != 11 || a.Words != 22 || a.Flops != 33 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestExchangeAllOnePortCostsAdd(t *testing.T) {
	params := costmodel.Params{CommStartup: 10, CommPerWord: 1}
	m := MustNew(2, params)
	var clock costmodel.Time
	_, err := m.Run(func(p *Proc) {
		got := p.ExchangeAll([]int{0, 1}, 3, [][]float64{{1, 2}, {3}})
		if p.ID() == 0 {
			clock = p.Clock()
			if int(got[0][0]) != 1 && len(got[0]) != 2 {
				panic("wrong payload on dim 0")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// One-port: sends cost (10+2)+(10+1)=23; receives arrive no later
	// than the symmetric partner's send completion.
	if clock < 23 {
		t.Fatalf("one-port clock %v, want >= 23", clock)
	}
}

func TestExchangeAllAllPortsCostsMax(t *testing.T) {
	params := costmodel.Params{CommStartup: 10, CommPerWord: 1, AllPorts: true}
	m := MustNew(2, params)
	clocks := make([]costmodel.Time, m.P())
	_, err := m.Run(func(p *Proc) {
		p.ExchangeAll([]int{0, 1}, 3, [][]float64{{1, 2}, {3}})
		clocks[p.ID()] = p.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// All-port: the phase costs max(12, 11) = 12 at every symmetric
	// participant.
	for pid, c := range clocks {
		if c != 12 {
			t.Fatalf("proc %d all-port clock %v, want 12", pid, c)
		}
	}
}

func TestExchangeAllRejectsDuplicateDims(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		p.ExchangeAll([]int{0, 0}, 1, [][]float64{{1}, {2}})
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate dimension") {
		t.Fatalf("err = %v", err)
	}
}

func TestExchangeAllRejectsLengthMismatch(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		p.ExchangeAll([]int{0, 1}, 1, [][]float64{{1}})
	})
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestDimRangeChecked(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(2, 1, nil)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeFlopsPanics(t *testing.T) {
	m := MustNew(0, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) { p.Compute(-1) })
	if err == nil {
		t.Fatal("negative flops accepted")
	}
}

func TestNeighborAddress(t *testing.T) {
	m := MustNew(4, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		for d := 0; d < p.Dim(); d++ {
			if p.Neighbor(d) != p.ID()^(1<<d) {
				panic("bad neighbor")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoutePhaseCharge(t *testing.T) {
	params := costmodel.Params{RouteStartup: 5, RoutePerWord: 2, RoutePerMsg: 1}
	m := MustNew(0, params)
	var clock costmodel.Time
	if _, err := m.Run(func(p *Proc) {
		p.RoutePhaseCharge(2, 3)
		clock = p.Clock()
	}); err != nil {
		t.Fatal(err)
	}
	if clock != 13 {
		t.Fatalf("route phase charge clock %v, want 13", clock)
	}
}

func TestManySequentialRuns(t *testing.T) {
	m := MustNew(5, costmodel.CM2())
	for i := 0; i < 20; i++ {
		if _, err := m.Run(func(p *Proc) {
			p.Barrier(p.FullMask(), i)
		}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestClocksExposed(t *testing.T) {
	params := costmodel.Params{FlopTime: 1}
	m := MustNew(2, params)
	if _, err := m.Run(func(p *Proc) { p.Compute(p.ID() * 3) }); err != nil {
		t.Fatal(err)
	}
	clocks := m.Clocks()
	if len(clocks) != m.P() {
		t.Fatalf("clocks len %d", len(clocks))
	}
	for pid, c := range clocks {
		if c != costmodel.Time(pid*3) {
			t.Fatalf("proc %d clock %v, want %d", pid, c, pid*3)
		}
	}
	// The returned slice is a copy.
	clocks[0] = 999
	if m.Clocks()[0] == 999 {
		t.Fatal("Clocks returns aliased storage")
	}
}

func TestTraceRecordsMessages(t *testing.T) {
	m := MustNew(3, costmodel.Ideal())
	m.EnableProfile(true)
	m.EnableTrace(100)
	if _, err := m.Run(func(p *Proc) {
		p.Exchange(0, 7, []float64{1, 2})
		p.Exchange(1, 8, []float64{3})
	}); err != nil {
		t.Fatal(err)
	}
	// Only processor 0's links are recorded: both directions on
	// dimensions 0 and 1.
	tr := m.Profile().Events
	if len(tr) != 4 {
		t.Fatalf("%d events, want 4: %+v", len(tr), tr)
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Time < tr[i-1].Time {
			t.Fatal("trace not time-ordered")
		}
	}
	seenTags := map[int]int{}
	for _, ev := range tr {
		if ev.Dst != ev.Src^(1<<ev.Dim) || (ev.Src != 0 && ev.Dst != 0) {
			t.Fatalf("event off processor 0's links: %+v", ev)
		}
		seenTags[ev.Tag]++
	}
	if seenTags[7] != 2 || seenTags[8] != 2 {
		t.Fatalf("tags: %v", seenTags)
	}
	// The processors off processor 0's links keep no record at all.
	for pid, pr := range m.procs {
		if pid&(pid-1) != 0 && cap(pr.trace) != 0 {
			t.Fatalf("proc %d holds a trace of capacity %d", pid, cap(pr.trace))
		}
	}
	// Hottest first: the 2-word dim-0 links, then the 1-word dim-1
	// links, ties by source.
	loads := m.Congestion(0)
	if len(loads) != 2*m.P() || loads[0] != (obs.LinkLoad{Src: 0, Dim: 0, Dst: 1, Words: 2}) ||
		loads[m.P()] != (obs.LinkLoad{Src: 0, Dim: 1, Dst: 2, Words: 1}) {
		t.Fatalf("link loads: %v", loads)
	}
}

func TestTraceLimitRespected(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	m.EnableProfile(true)
	m.EnableTrace(3)
	if _, err := m.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Exchange(0, i, []float64{1})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Profile().Events); got != 3*m.P() {
		t.Fatalf("%d events, want %d (limit 3 per proc)", got, 3*m.P())
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	m.EnableProfile(true)
	if _, err := m.Run(func(p *Proc) { p.Exchange(0, 1, nil) }); err != nil {
		t.Fatal(err)
	}
	if ev := m.Profile().Events; len(ev) != 0 {
		t.Fatalf("trace recorded while disabled: %+v", ev)
	}
	// Armed without the profiler, the trace has no reader and records
	// nothing.
	m.EnableProfile(false)
	m.EnableTrace(10)
	if _, err := m.Run(func(p *Proc) { p.Exchange(0, 1, nil) }); err != nil {
		t.Fatal(err)
	}
	for pid, pr := range m.procs {
		if len(pr.trace) != 0 {
			t.Fatalf("proc %d recorded %d messages in an unprofiled run", pid, len(pr.trace))
		}
	}
}
