package hypercube

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmprim/internal/costmodel"
	"vmprim/internal/testutil"
)

// Tests and benchmarks of the link transport (link.go): the send-stall
// path, abort while stalled, the post-mortem census of a wrapped ring,
// and a lost-wake-up stress. Ring capacity is covered by
// TestLinkCapScalesWithDimension.

// awaitParked holds the calling processor back until processor pid has
// published the park word w. It waits on the event itself, yielding so
// that it also works at GOMAXPROCS 1; the deadline turns a transport
// bug into a run error instead of a hung test.
func awaitParked(m *Machine, pid int, w uint32) {
	deadline := time.Now().Add(20 * time.Second)
	for m.parkers[pid].state.Load() != w {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("processor %d never parked on %#x", pid, w))
		}
		runtime.Gosched()
	}
}

// checkSameSimResults asserts that the last runs of a and b agree in
// every simulated quantity: elapsed time, counters and each clock.
func checkSameSimResults(t *testing.T, what string, a, b *Machine) {
	t.Helper()
	if a.Elapsed() != b.Elapsed() || a.LastStats() != b.LastStats() {
		t.Fatalf("%s: %v/%+v vs %v/%+v", what, a.Elapsed(), a.LastStats(), b.Elapsed(), b.LastStats())
	}
	ac, bc := a.Clocks(), b.Clocks()
	for pid := range ac {
		if ac[pid] != bc[pid] {
			t.Fatalf("%s: proc %d clock %v vs %v", what, pid, ac[pid], bc[pid])
		}
	}
}

// checkLikeFresh runs the same program on m and on a new machine like
// it and asserts that they agree in every simulated quantity: whatever
// m's last run left behind must not show.
func checkLikeFresh(t *testing.T, what string, m *Machine) {
	t.Helper()
	fresh := MustNew(m.Dim(), m.Params())
	defer fresh.Close()
	for _, mm := range []*Machine{m, fresh} {
		if _, err := mm.Run(exerciseBody); err != nil {
			t.Fatal(err)
		}
	}
	checkSameSimResults(t, what+" vs fresh machine", m, fresh)
}

func TestSendStallFIFO(t *testing.T) {
	// Processor 0 streams more messages than the ring holds while its
	// partner is held back until the sender has parked on the full
	// ring (awaitParked returns on nothing else, so a run that ends
	// has stalled). Tags are sequence numbers, so Recv itself rejects
	// any reordering; n exceeds twice the capacity so both indices wrap.
	const dim = 1
	n := 2*linkCap(dim) + 5
	run := func(hold bool) *Machine {
		m := MustNew(dim, costmodel.CM2())
		if _, err := m.Run(func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < n; i++ {
					p.Send(0, i, []float64{float64(i)})
				}
				return
			}
			if hold {
				awaitParked(p.m, 0, parkSend|0)
			}
			for i := 0; i < n; i++ {
				got := p.Recv(0, i)
				if len(got) != 1 || got[0] != float64(i) {
					panic(fmt.Sprintf("message %d carried %v", i, got))
				}
				p.Recycle(got)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	stalled := run(true)
	defer stalled.Close()
	if !stalled.linksEmpty() {
		t.Fatal("links not empty after a successful run")
	}

	// Backpressure is host scheduling only: the stalled run's simulated
	// results equal those of a run whose receiver was never held back.
	free := run(false)
	defer free.Close()
	checkSameSimResults(t, "stalled run vs unstalled", stalled, free)
}

func TestSendStallAbortedBySibling(t *testing.T) {
	// Processor 0 is parked on a full ring nobody will ever drain when
	// processor 2 panics. The abort must wake the stalled sender (and
	// the two blocked receivers), Run must report processor 2's panic,
	// and the machine must come back indistinguishable from a fresh one
	// — whether the stalled message is a pooled copy or a buffer the
	// sender gave up with SendOwned.
	for _, owned := range []bool{false, true} {
		sendStallAbortedBySibling(t, owned)
	}
}

func sendStallAbortedBySibling(t *testing.T, owned bool) {
	const dim = 2
	m := MustNew(dim, costmodel.CM2())
	defer m.Close()
	m.SetRecvTimeout(time.Minute)
	start := time.Now()
	_, err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < linkCap(dim)+3; i++ {
				if owned {
					p.SendOwned(0, i, []float64{1})
				} else {
					p.Send(0, i, []float64{1})
				}
			}
			panic("sender ran past a full ring")
		case 2:
			awaitParked(p.m, 0, parkSend|0)
			panic("sibling failure")
		default:
			p.Recv(1, 99) // 1 and 3 wait on each other until the abort
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 2") || !strings.Contains(err.Error(), "sibling failure") {
		t.Fatalf("err = %v, want processor 2's panic", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("abort did not unblock the stalled sender promptly")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not wrap *RunError", err)
	}
	if ps := re.Report.Procs[0]; ps.Wait != "send" || ps.WaitDim != 0 || ps.WaitTag != linkCap(dim) {
		t.Fatalf("proc 0 blocked on %q dim %d tag %d, want send dim 0 tag %d",
			ps.Wait, ps.WaitDim, ps.WaitTag, linkCap(dim))
	}
	for _, pid := range []int{1, 3} {
		if ps := re.Report.Procs[pid]; ps.Wait != "recv" || ps.WaitDim != 1 || ps.WaitTag != 99 {
			t.Fatalf("proc %d blocked on %q dim %d tag %d, want recv dim 1 tag 99",
				pid, ps.Wait, ps.WaitDim, ps.WaitTag)
		}
	}
	// The two receivers parked once each; this is the one host counter
	// the machine still keeps.
	if v, _ := m.Metrics().Snapshot().Value("vmprim_sched_recv_parks_total"); v != 2 {
		t.Fatalf("vmprim_sched_recv_parks_total = %v, want 2", v)
	}
	if len(re.Report.Links) != 1 || re.Report.Links[0].Queued != linkCap(dim) {
		t.Fatalf("links = %+v, want the one full ring", re.Report.Links)
	}
	if !m.linksEmpty() {
		t.Fatal("links not empty after aborted run")
	}
	checkLikeFresh(t, "run after abort", m)
}

func TestSendStallDeadlockDetected(t *testing.T) {
	// Both processors run past their full ring before either receives,
	// so both park in stallSend and nobody is in Recv. The watchdog used
	// to be armed by receivers only and this run hung for ever; now a
	// stalled send expires like a blocked receive.
	const dim = 1
	const window = 200 * time.Millisecond
	m := MustNew(dim, costmodel.CM2())
	defer m.Close()
	m.SetRecvTimeout(window)
	n := linkCap(dim) + 2
	start := time.Now()
	_, err := m.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Send(0, 1, []float64{float64(i)})
		}
		for i := 0; i < n; i++ {
			p.Recycle(p.Recv(0, 1))
		}
	})
	if took := time.Since(start); took < window || took > 2*window+10*time.Second {
		t.Fatalf("run took %v, want more than one window of %v and at most two", took, window)
	}
	// Both die at the same boundary; which one aborts the other is a race.
	want := regexp.MustCompile(`^hypercube: processor [01]: send stalled on dim 0 \(tag 1\): deadlock \[2/2 procs blocked; post-mortem attached\]$`)
	if err == nil || !want.MatchString(err.Error()) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	rep := m.PostMortem()
	for pid, ps := range rep.Procs {
		if ps.Wait != "send" || ps.WaitDim != 0 || ps.WaitTag != 1 {
			t.Fatalf("proc %d blocked on %q dim %d tag %d, want send dim 0 tag 1", pid, ps.Wait, ps.WaitDim, ps.WaitTag)
		}
	}
	if len(rep.Links) != 2 || rep.Links[0].Queued != linkCap(dim) || rep.Links[1].Queued != linkCap(dim) {
		t.Fatalf("links = %+v, want both rings full", rep.Links)
	}
	if !m.linksEmpty() {
		t.Fatal("links not empty after the deadlocked run")
	}
	checkLikeFresh(t, "run after send deadlock", m)
}

// TestLinkSendOwnedMatchesSend: SendOwned is Send without the copy and
// nothing else. The same program written with either must agree in
// every simulated quantity and in every recorder: clocks, counters,
// message trace, flight-recorder events, profile and critical path.
func TestLinkSendOwnedMatchesSend(t *testing.T) {
	const dim = 3
	program := func(send func(p *Proc, d, tag int, words []float64)) func(*Proc) {
		return func(p *Proc) {
			words := make([]float64, 9)
			for i := range words {
				words[i] = float64(10*p.ID() + i)
			}
			for round := 0; round < 3; round++ {
				p.BeginSpan("round")
				for d := 0; d < p.Dim(); d++ {
					n := (p.ID() + d + round) % len(words) // includes empty messages
					send(p, d, 8*round+d, words[:n])
					got := p.Recv(d, 8*round+d)
					partner := p.ID() ^ 1<<d
					if want := (partner + d + round) % len(words); len(got) != want || (want > 0 && got[want-1] != float64(10*partner+want-1)) {
						panic(fmt.Sprintf("round %d dim %d: got %v from %d", round, d, got, partner))
					}
					p.Compute(len(got) + p.ID()%3)
					p.Recycle(got)
				}
				p.EndSpan()
			}
		}
	}
	run := func(body func(*Proc)) *Machine {
		m := MustNew(dim, costmodel.CM2())
		m.EnableTrace(1 << 10)
		m.EnableProfile(true)
		m.EnableCritPath(true)
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
		return m
	}
	copied := run(program(func(p *Proc, d, tag int, words []float64) { p.Send(d, tag, words) }))
	defer copied.Close()
	moved := run(program(func(p *Proc, d, tag int, words []float64) {
		buf := p.GetBuf(len(words))
		copy(buf, words)
		p.SendOwned(d, tag, buf)
	}))
	defer moved.Close()

	checkSameSimResults(t, "SendOwned vs Send", moved, copied)
	if a, b := moved.Trace(), copied.Trace(); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("message traces differ (%d vs %d events)", len(a), len(b))
	}
	for pid := range copied.procs {
		a, b := moved.procs[pid].rec.Snapshot(nil), copied.procs[pid].rec.Snapshot(nil)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("proc %d: flight-recorder events differ:\n%+v\n%+v", pid, a, b)
		}
	}
	if a, b := moved.CritPath(), copied.CritPath(); a == nil || !reflect.DeepEqual(a, b) {
		t.Fatalf("critical-path reports differ:\n%+v\n%+v", a, b)
	}
	if a, b := moved.Profile(), copied.Profile(); a == nil || !reflect.DeepEqual(a, b) {
		t.Fatal("profiles differ")
	}
	if !moved.linksEmpty() {
		t.Fatal("links not empty after the owned-send run")
	}
}

func TestWatchdogDisarmedBetweenRuns(t *testing.T) {
	// An idle machine has nothing pending in the runtime's timer heap,
	// however its last run ended: Run stops the machine's one timer
	// before it returns, so stopping it again finds nothing to stop and
	// no tick waits in its channel. (A timer left running would also
	// keep a closed machine's tick due for a whole timeout.)
	m := MustNew(2, costmodel.Ideal())
	defer m.Close()
	idle := func(after string) {
		t.Helper()
		if m.watchdog.Stop() {
			t.Fatalf("the machine's timer was still running after %s", after)
		}
		select {
		case <-m.watchdog.C:
			t.Fatalf("a tick was left in the timer's channel after %s", after)
		default:
		}
	}
	if _, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			awaitParked(p.m, 1, parkRecv|0)
		}
		p.Barrier(p.FullMask(), 1)
	}); err != nil {
		t.Fatal(err)
	}
	idle("a successful run")
	m.SetRecvTimeout(50 * time.Millisecond)
	if _, err := m.Run(func(p *Proc) { p.Recv(0, 1) }); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	idle("a deadlocked run, in which it fired twice")
	m.SetRecvTimeout(0)
	if _, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			awaitParked(p.m, 1, parkRecv|0)
			panic("sibling failure")
		}
		p.Recv(0, 1)
	}); err == nil || !strings.Contains(err.Error(), "sibling failure") {
		t.Fatalf("err = %v, want processor 0's panic", err)
	}
	idle("an aborted run")
}

// deadlocked has processor 0 wait for a message nobody sends.
func deadlocked(p *Proc) {
	if p.ID() == 0 {
		p.Recv(0, 1)
	}
}

func TestLinkWatchdogWindowIsTheRuns(t *testing.T) {
	// Windows belong to the run, not to the wait: processor 0 parks three
	// quarters into the first one, is found parked at its end without
	// having been so for a whole window, and dies only at the next
	// boundary. Never before a full window without progress, at most two.
	const window = 200 * time.Millisecond
	m := MustNew(1, costmodel.Ideal())
	defer m.Close()
	m.SetRecvTimeout(window)
	var entered time.Time // written by processor 0, read after the join
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			time.Sleep(3 * window / 4)
			entered = time.Now()
			deadlocked(p)
			return
		}
		awaitParked(p.m, 0, parkRecv|0) // what is timed below is a park
	})
	waited := time.Since(entered)
	if want := "processor 0: recv timeout on dim 0 (tag 1): deadlock [1/2 procs blocked"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if waited < window {
		t.Fatalf("processor 0 died %v after it entered Recv, before a full window of %v without progress", waited, window)
	}
	if waited > 2*window+10*time.Second {
		t.Fatalf("processor 0 died %v after it entered Recv, want within two windows of %v", waited, window)
	}
	if v, _ := m.Metrics().Snapshot().Value("vmprim_watchdog_rearms_total"); v != 1 {
		t.Fatalf("watchdog_rearms_total = %v, want the one boundary that spared processor 0", v)
	}
}

func TestLinkWatchdogTimeoutAppliesToNextRun(t *testing.T) {
	// The machine's one timer is Reset with the current timeout at every
	// dispatch, so a timeout changed between runs governs the next run,
	// in both directions.
	m := MustNew(1, costmodel.Ideal())
	defer m.Close()
	timed := func(window time.Duration) time.Duration {
		t.Helper()
		m.SetRecvTimeout(window)
		start := time.Now()
		if _, err := m.Run(deadlocked); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("err = %v, want deadlock", err)
		}
		return time.Since(start)
	}
	const short, long = 30 * time.Millisecond, 400 * time.Millisecond
	timed(short)
	if took := timed(long); took < long {
		t.Fatalf("deadlock reported after %v with the timeout raised to %v: the run kept the old one", took, long)
	}
	if took := timed(short); took >= long {
		t.Fatalf("deadlock reported after %v with the timeout lowered to %v: the run kept the old one", took, short)
	}
}

// awaitWorkers collects garbage until exactly n hypercube.worker
// goroutines are left in the process; the collections run the
// finalizers of machines dropped without Close, by earlier tests too.
func awaitWorkers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		alive := 0
		for sig, c := range testutil.Snapshot() {
			if strings.Contains(sig, "hypercube.worker") {
				alive += c
			}
		}
		if alive == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d hypercube.worker goroutines alive, want %d", alive, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLinkWorkersExit(t *testing.T) {
	// A worker ranges over its own channel and holds nothing else, so it
	// exits when Close closes the channel — and, because it does not pin
	// the Machine, when a Machine dropped without Close is collected and
	// its finalizer does the same.
	run := func() *Machine {
		m := MustNew(3, costmodel.Ideal())
		if _, err := m.Run(func(p *Proc) { p.Barrier(p.FullMask(), 1) }); err != nil {
			t.Fatal(err)
		}
		return m
	}
	awaitWorkers(t, 0)
	m := run()
	awaitWorkers(t, m.P())
	m.Close()
	awaitWorkers(t, 0)
	runtime.KeepAlive(m) // Close ended them, not the collector

	run()
	awaitWorkers(t, 0)
}

func TestLinkCensusOfWrappedRing(t *testing.T) {
	// The post-mortem census must list a ring's undelivered messages
	// oldest first wherever they sit in the buffer. Processor 1 consumes
	// six messages (moving the head off slot 0), waits until the sender
	// has refilled the ring across the wrap, then dies on a tag
	// mismatch: the mismatched message is consumed, the rest is census.
	const dim = 1
	c := linkCap(dim)
	const consumed = 6
	m := MustNew(dim, costmodel.CM2())
	defer m.Close()
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < consumed+c; i++ {
				p.Send(0, i, make([]float64, i%3))
			}
			return
		}
		for i := 0; i < consumed; i++ {
			p.Recycle(p.Recv(0, i))
		}
		for !p.in[0].full() {
			runtime.Gosched()
		}
		p.Recv(0, -1)
	})
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("err = %v, want tag mismatch", err)
	}
	rep := m.PostMortem()
	if len(rep.Links) != 1 {
		t.Fatalf("links = %+v, want one occupied", rep.Links)
	}
	words := 0
	for i := consumed + 1; i < consumed+c; i++ {
		words += i % 3
	}
	l := rep.Links[0]
	if l.Src != 0 || l.Dst != 1 || l.Dim != 0 || l.Queued != c-1 || l.QueuedWords != words || l.HeadTag != consumed+1 {
		t.Fatalf("link %+v, want 0->1 dim 0 holding %d msgs / %d words, head tag %d",
			l, c-1, words, consumed+1)
	}
	if !m.linksEmpty() {
		t.Fatal("links not drained after post-mortem census")
	}
}

// pipeline passes laps zero-word messages around the four-processor
// cycle 0 -> 1 -> 3 -> 2 -> 0 of a 2-cube, processor 0 keeping window
// of them in flight. Every processor idles a pseudo-random few hundred
// nanoseconds before each message (slow's delays are four times as
// long), so that the two ends of a link run on different host threads
// and drift in and out of step — which the strict hand-off of a
// ping-pong never does.
func pipeline(p *Proc, laps, window, slow int) {
	in, out := 1, 0
	if p.ID() == 1 || p.ID() == 2 {
		in, out = 0, 1
	}
	shift := 54
	if p.ID() == slow {
		shift = 52
	}
	acc, rng := 1.0, uint64(p.ID()+1)
	for i := 0; i < laps+window; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		for k := rng >> shift; k > 0; k-- {
			acc = acc*1.0000001 + 1e-9
		}
		if p.ID() != 0 {
			if i < laps {
				p.Recycle(p.Recv(in, i))
				p.Send(out, i, nil)
			}
			continue
		}
		if i >= window {
			p.Recycle(p.Recv(in, i-window))
		}
		if i < laps {
			p.Send(out, i, nil)
		}
	}
	if acc == 0 {
		panic("unreachable: keeps the delay loop alive")
	}
}

func TestLostWakeupStress(t *testing.T) {
	// Every message of a ping-pong finds its receiver parked or about
	// to park, so each one races a publication against a wake-up. The
	// balanced pipeline repeats that race with both ends of a link
	// running in parallel; the pipeline with a slow stage keeps the
	// rings upstream of it full, which races senders parked on a full
	// ring against the pops that free it. The races are real but rare —
	// Go hands a woken goroutine to the waker's thread, so most hand-offs
	// are serial: with Recv's slow path broken to check the ring before
	// it publishes the park word, about one run in three fails on two
	// cores. That is why CI runs this under -race with -count=5.
	//
	// A lost token leaves a processor asleep with its message posted
	// until the watchdog wakes it, so instead of hanging, the run fails
	// either as a reported deadlock or — when the watchdog finds earlier
	// deliveries and re-arms, after which the sleeper sees its message —
	// on the re-arm count: no healthy run of this size outlasts the
	// watchdog's first window.
	const dim = 2
	const rounds = 50_000 // 10^5 zero-word messages per pair and dimension
	const laps = 50_000
	for _, procs := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := MustNew(dim, costmodel.Ideal())
			defer m.Close()
			m.SetRecvTimeout(30 * time.Second)
			if _, err := m.Run(func(p *Proc) {
				for d := 0; d < dim; d++ {
					low := p.ID()>>d&1 == 0
					for i := 0; i < rounds; i++ {
						if low {
							p.Send(d, i, nil)
							p.Recycle(p.Recv(d, i))
						} else {
							p.Recycle(p.Recv(d, i))
							p.Send(d, i, nil)
						}
					}
				}
				pipeline(p, laps, linkCap(dim), -1)
				pipeline(p, laps, 3*linkCap(dim), 3)
			}); err != nil {
				t.Fatal(err)
			}
			if v, _ := m.Metrics().Snapshot().Value("vmprim_watchdog_rearms_total"); v != 0 {
				t.Fatalf("watchdog re-armed %v times: a processor slept through a posted message (lost wake-up)", v)
			}
		})
	}
}

// benchLink times one Run in which every processor executes step b.N
// times, and reports host nanoseconds per link message. One long run
// amortises the per-Run dispatch away, so the profile is the transport.
func benchLink(b *testing.B, dim int, step func(p *Proc, i int)) {
	m := MustNew(dim, costmodel.Ideal())
	defer m.Close()
	run := func(n int) {
		if _, err := m.Run(func(p *Proc) {
			for i := 0; i < n; i++ {
				step(p, i)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	run(64) // start the workers, warm the pools
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.LastStats().Messages), "ns/msg")
}

// BenchmarkLinkPingPong is the start-up term alone: two processors,
// strict alternation, zero-word messages, a park per message.
func BenchmarkLinkPingPong(b *testing.B) {
	benchLink(b, 1, func(p *Proc, i int) {
		if p.ID() == 0 {
			p.Send(0, i, nil)
			p.Recycle(p.Recv(0, i))
		} else {
			p.Recycle(p.Recv(0, i))
			p.Send(0, i, nil)
		}
	})
}

// BenchmarkLinkExchange is the pattern the collectives are made of: 64
// processors exchange a few words along every dimension in turn.
func BenchmarkLinkExchange(b *testing.B) {
	payload := []float64{1, 2, 3, 4}
	benchLink(b, 6, func(p *Proc, i int) {
		for d := 0; d < p.Dim(); d++ {
			p.Recycle(p.Exchange(d, i, payload))
		}
	})
}
