package hypercube

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
)

// Tests and benchmarks of the link transport (link.go) and the engine
// that runs processors as coroutines: the node store, the send-stall
// path, abort while stalled, exact deadlock detection, the post-mortem
// census of a refilled link, coroutine exit, and a wake-up stress. Link
// capacity is covered by TestLinkCapScalesWithDimension.

// mustBeParked panics unless processor pid is suspended waiting to do
// kind on dimension d: the engine runs one processor at a time, so a
// test states the interleaving it relies on instead of waiting for it.
// That interleaving is the FIFO schedule's; the tests that use it, and
// those that expect the lowest address to report a deadlock, hold under
// FIFO only.
func mustBeParked(m *Machine, pid int, kind flightrec.WaitKind, d int) {
	if pr := m.procs[pid]; pr.parked == nil || pr.waitKind != kind || pr.waitDim != d {
		panic(fmt.Sprintf("processor %d is not parked on %v dim %d", pid, kind, d))
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
	// Processor 0 streams more messages than the link holds before its
	// partner receives any, so it stalls on the full link (the receiver
	// checks that it did). Tags are sequence numbers, so Recv itself
	// rejects any reordering; n exceeds twice the capacity so the link
	// is refilled from freed nodes more than once.
	const dim = 1
	n := 2*linkCap(dim) + 5
	params := costmodel.CM2()
	m := MustNew(dim, params)
	defer m.Close()
	if _, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < n; i++ {
				p.Send(0, i, []float64{float64(i)})
			}
			return
		}
		mustBeParked(p.m, 0, flightrec.WaitSend, 0)
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
	if !m.linksEmpty() {
		t.Fatal("links not empty after a successful run")
	}
	// Backpressure is host scheduling only: both clocks end where the
	// sender's n back-to-back sends put them.
	want := costmodel.Time(n) * params.SendCost(1)
	if c := m.Clocks(); c[0] != want || c[1] != want {
		t.Fatalf("clocks %v, want both %v", c, want)
	}
}

func TestSendStallAbortedBySibling(t *testing.T) {
	// Processor 0 is parked on a full link nobody will ever drain when
	// processor 2 panics. The abort must resume the stalled sender (and
	// the blocked receivers), Run must report processor 2's panic, and
	// the machine must come back indistinguishable from a fresh one —
	// whether the stalled message is a pooled copy or a buffer the
	// sender gave up with SendOwned.
	for _, owned := range []bool{false, true} {
		sendStallAbortedBySibling(t, owned)
	}
}

func sendStallAbortedBySibling(t *testing.T, owned bool) {
	const dim = 2
	m := MustNew(dim, costmodel.CM2())
	defer m.Close()
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
			panic("sender ran past a full link")
		case 2:
			mustBeParked(p.m, 0, flightrec.WaitSend, 0)
			panic("sibling failure")
		default:
			p.Recv(1, 99) // 1 and 3 wait on each other until the abort
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 2") || !strings.Contains(err.Error(), "sibling failure") {
		t.Fatalf("err = %v, want processor 2's panic", err)
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
	// The two receivers found their links empty once each.
	if v, _ := m.Metrics().Snapshot().Value("vmprim_sched_recv_parks_total"); v != 2 {
		t.Fatalf("vmprim_sched_recv_parks_total = %v, want 2", v)
	}
	if len(re.Report.Links) != 1 || re.Report.Links[0].Queued != linkCap(dim) {
		t.Fatalf("links = %+v, want the one full link", re.Report.Links)
	}
	if !m.linksEmpty() {
		t.Fatal("links not empty after aborted run")
	}
	checkLikeFresh(t, "run after abort", m)
}

func TestSendStallDeadlockDetected(t *testing.T) {
	// Both processors run past their full link before either receives,
	// so both park in stallSend and nobody is in Recv: a deadlock of
	// senders, reported like one of receivers, by the lower address
	// (under FIFO; LIFO resumes processor 1 first).
	const dim = 1
	m := MustNew(dim, costmodel.CM2())
	defer m.Close()
	n := linkCap(dim) + 2
	_, err := m.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Send(0, 1, []float64{float64(i)})
		}
		for i := 0; i < n; i++ {
			p.Recycle(p.Recv(0, 1))
		}
	})
	const want = "hypercube: processor 0: send stalled on dim 0 (tag 1): deadlock [2/2 procs blocked; post-mortem attached]"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	rep := m.PostMortem()
	for pid, ps := range rep.Procs {
		if ps.Wait != "send" || ps.WaitDim != 0 || ps.WaitTag != 1 {
			t.Fatalf("proc %d blocked on %q dim %d tag %d, want send dim 0 tag 1", pid, ps.Wait, ps.WaitDim, ps.WaitTag)
		}
	}
	if len(rep.Links) != 2 || rep.Links[0].Queued != linkCap(dim) || rep.Links[1].Queued != linkCap(dim) {
		t.Fatalf("links = %+v, want both links full", rep.Links)
	}
	if !m.linksEmpty() {
		t.Fatal("links not empty after the deadlocked run")
	}
	checkLikeFresh(t, "run after send deadlock", m)
}

func TestDeadlockExactAfterManyMessages(t *testing.T) {
	// 10^4 messages of healthy traffic, then processors 0 and 1 wait on
	// dimension 1 for messages 2 and 3 never send. With no timeout to
	// configure, the run must be reported the moment nothing can run, and
	// the post-mortem must name exactly the two parked processors.
	const dim, rounds = 2, 1250 // 4 procs x 2 dims x 1250 = 10^4 messages
	m := MustNew(dim, costmodel.CM2())
	defer m.Close()
	start := time.Now()
	_, err := m.Run(func(p *Proc) {
		for i := 0; i < rounds; i++ {
			for d := 0; d < dim; d++ {
				p.Recycle(p.Exchange(d, i, []float64{float64(i)}))
			}
		}
		if p.ID() < 2 {
			p.Recv(1, -1)
		}
	})
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("deadlock reported after %v, want within 100ms", took)
	}
	const want = "hypercube: processor 0: recv on dim 1 (tag -1): deadlock [2/4 procs blocked; post-mortem attached]"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if st := m.LastStats(); st.Messages != 4*dim*rounds {
		t.Fatalf("%d messages before the deadlock, want %d", st.Messages, 4*dim*rounds)
	}
	for pid, ps := range m.PostMortem().Procs {
		parked := pid < 2
		if got := ps.Wait == "recv" && ps.WaitDim == 1 && ps.WaitTag == -1; got != parked || (!parked && ps.Wait != "") {
			t.Fatalf("proc %d waits on %q dim %d tag %d, want parked=%v", pid, ps.Wait, ps.WaitDim, ps.WaitTag, parked)
		}
	}
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
	if a, b := moved.Profile().Events, copied.Profile().Events; len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("message traces differ (%d vs %d events)", len(a), len(b))
	}
	for pid := range copied.procs {
		a := moved.procs[pid].rec.Snapshot(nil, &moved.labels)
		b := copied.procs[pid].rec.Snapshot(nil, &copied.labels)
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

func TestLinkPingPongReusesTwoNodes(t *testing.T) {
	// The free list is LIFO, so a message takes the node the last
	// delivered one gave back: a ping-pong of any length, one message in
	// flight at a time, never holds more than two nodes.
	m := MustNew(1, costmodel.Ideal())
	defer m.Close()
	if _, err := m.Run(func(p *Proc) {
		for i := 0; i < 3*linkCap(1); i++ {
			if p.ID() == 0 {
				p.Send(0, i, []float64{1})
				p.Recycle(p.Recv(0, i))
			} else {
				p.Recycle(p.Recv(0, i))
				p.Send(0, i, []float64{2})
			}
			if n := len(p.m.store.nodes); n > 2 {
				panic(fmt.Sprintf("after message %d the store holds %d nodes", i, n))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(m.store.nodes); n > 2 || !m.linksEmpty() {
		t.Fatalf("store holds %d nodes, %d in use after the run, want <= 2 and 0", n, m.store.inUse)
	}
}

// TestMessageSize pins a queued message at 48 bytes: a payload slice,
// a tag, an arrival time and a chain pointer. Every send copies one
// into a node of the link store and every receive copies it out, so a
// field added to it is paid on every message. The node that holds it
// is one cache line.
func TestMessageSize(t *testing.T) {
	if s := unsafe.Sizeof(message{}); s != 48 {
		t.Errorf("message is %d bytes, want 48", s)
	}
	if s := unsafe.Sizeof(msgNode{}); s != 64 {
		t.Errorf("a link store node is %d bytes, want 64", s)
	}
}

// TestLinkStoreInvariants drives several links of one machine's store
// with a random push/pop sequence and checks after every step what the
// store promises against a slice per link: FIFO order, a push fails iff
// the link holds linkCap messages, a pop fails iff it is empty, every
// node is either on a link or on the free list, and no free node keeps
// a delivered payload reachable.
func TestLinkStoreInvariants(t *testing.T) {
	const dim = 2
	m := MustNew(dim, costmodel.Ideal())
	s, c := &m.store, linkCap(dim)
	model := make([][]int, len(m.links))
	payload, snap := []float64{1}, new(chain)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200000; step++ {
		i := rng.Intn(len(m.links))
		l, q := &m.links[i], model[i]
		if rng.Intn(2) == 0 {
			if ok := s.push(l, message{words: payload, tag: step, cp: snap}); ok != (len(q) < c) {
				t.Fatalf("step %d: push on link %d holding %d = %v", step, i, len(q), ok)
			} else if ok {
				model[i] = append(q, step)
			}
		} else {
			msg, ok := s.pop(l)
			if ok != (len(q) > 0) {
				t.Fatalf("step %d: pop on link %d holding %d = %v", step, i, len(q), ok)
			}
			if ok {
				if msg.tag != q[0] || msg.words == nil {
					t.Fatalf("step %d: pop on link %d = tag %d, want %d", step, i, msg.tag, q[0])
				}
				model[i] = q[1:]
			}
		}
		inUse := 0
		for j, q := range model {
			if int(m.links[j].n) != len(q) {
				t.Fatalf("step %d: link %d counts %d messages, holds %d", step, j, m.links[j].n, len(q))
			}
			inUse += len(q)
		}
		free := 0
		for f := s.free; f != 0 && free <= len(s.nodes); f = s.nodes[f-1].next {
			if nd := s.nodes[f-1]; nd.words != nil || nd.cp != nil {
				t.Fatalf("step %d: free node %d keeps a payload", step, f-1)
			}
			free++
		}
		if s.inUse != inUse || len(s.nodes) != inUse+free {
			t.Fatalf("step %d: %d nodes, %d counted in use, %d free, %d queued", step, len(s.nodes), s.inUse, free, inUse)
		}
	}
	t.Logf("%d nodes serve %d links of capacity %d", len(s.nodes), len(m.links), c)
}

// TestLinkMemoryProportionalToTraffic: New allocates nothing that grows
// with linkCap, so the heap a machine retains per processor is flat in
// the dimension, and the store grows only to the messages in flight.
func TestLinkMemoryProportionalToTraffic(t *testing.T) {
	var base float64
	for _, dim := range []int{8, 10, 12} {
		liveHeap() // finish the finalizers of machines dropped earlier
		before := liveHeap()
		m := MustNew(dim, costmodel.Ideal())
		per := float64(liveHeap()-before) / float64(m.P())
		runtime.KeepAlive(m)
		t.Logf("d=%d: %.0f bytes per processor after New", dim, per)
		if base == 0 {
			base = per
		}
		if per > 6<<10 || per < 0.85*base || per > 1.15*base {
			t.Fatalf("d=%d: New retains %.0f bytes per processor, want < 6 KB and within 15%% of d=8's %.0f", dim, per, base)
		}
	}
	// Every processor exchanges along every dimension: one message per
	// processor is the most ever in flight.
	m := MustNew(8, costmodel.Ideal())
	defer m.Close()
	if _, err := m.Run(exerciseBody); err != nil {
		t.Fatal(err)
	}
	if n := len(m.store.nodes); n > m.P() {
		t.Fatalf("store holds %d nodes after an exchange on every dimension, want <= %d", n, m.P())
	}
}

// liveHeap collects garbage and returns the bytes of heap still in use.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMachineBytesPerProc bounds what a machine retains per processor
// once it is ready to work: New plus one empty Run, which creates the
// coroutines. The flight recorders are the largest per-processor term.
func TestMachineBytesPerProc(t *testing.T) {
	const limit = 3 << 10
	for _, dim := range []int{8, 10, 12} {
		liveHeap() // finish the finalizers of machines dropped earlier
		before := liveHeap()
		m := MustNew(dim, costmodel.Ideal())
		if _, err := m.Run(func(*Proc) {}); err != nil {
			t.Fatal(err)
		}
		per := float64(liveHeap()-before) / float64(m.P())
		m.Close()
		t.Logf("d=%d: %.0f bytes per processor after New and one empty Run", dim, per)
		if per > limit {
			t.Errorf("d=%d: %.0f bytes per processor, want <= %d", dim, per, limit)
		}
	}
}

// coroutines counts the goroutines in the process that are running or
// suspended in a hypercube processor coroutine.
func coroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("hypercube.(*coro).loop"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// awaitCoroutines collects garbage until exactly n processor
// coroutines are left in the process; the collections run the
// finalizers of machines dropped without Close, by earlier tests too.
func awaitCoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		alive := coroutines()
		if alive == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d processor coroutines alive, want %d", alive, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLinkWorkersExit(t *testing.T) {
	// An idle coroutine pins nothing of its machine, so the coroutines
	// end when Close stops them and, because they do not pin the
	// Machine, when a Machine dropped without Close is collected and its
	// engine's finalizer does the same.
	run := func() *Machine {
		m := MustNew(3, costmodel.Ideal())
		if _, err := m.Run(func(p *Proc) { p.Barrier(p.FullMask(), 1) }); err != nil {
			t.Fatal(err)
		}
		return m
	}
	awaitCoroutines(t, 0)
	m := run()
	awaitCoroutines(t, m.P())
	m.Close()
	awaitCoroutines(t, 0)
	runtime.KeepAlive(m) // Close ended them, not the collector

	run()
	awaitCoroutines(t, 0)
}

func TestLinkCensusOfRefilledLink(t *testing.T) {
	// The post-mortem census must list a link's undelivered messages
	// oldest first, in list order rather than node order. Processor 1
	// consumes six of the messages 0 sends it along dimension 0, which
	// frees six nodes, waits for a token that 0 sends round the rest of
	// the cube once it has refilled the link from those nodes (newest
	// message in the lowest node), then dies on a tag mismatch: the
	// mismatched message is consumed, the rest is census.
	const dim = 2
	c := linkCap(dim)
	const consumed = 6
	m := MustNew(dim, costmodel.CM2())
	defer m.Close()
	_, err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < consumed+c; i++ {
				p.Send(0, i, make([]float64, i%3))
			}
			p.Send(1, 0, nil) // 0 -> 2 -> 3 -> 1
		case 2:
			p.Recycle(p.Recv(1, 0))
			p.Send(0, 0, nil)
		case 3:
			p.Recycle(p.Recv(0, 0))
			p.Send(1, 0, nil)
		case 1:
			for i := 0; i < consumed; i++ {
				p.Recycle(p.Recv(0, i))
			}
			p.Recycle(p.Recv(1, 0))
			if l := &p.in[0]; !p.m.store.full(l) || l.tail >= l.head {
				panic("the link was not refilled from freed nodes")
			}
			p.Recv(0, -1)
		}
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

func TestSchedCountersDeterministic(t *testing.T) {
	// Processors run in a fixed order, so the host-side counters are
	// functions of the program: frontier parks, and which pool gets find
	// a buffer — in a broadcast, whose sinks pile up buffers that its
	// sources take back from the machine's pool. Two runs must read the
	// same. (Under another schedule they legitimately move; see
	// hostCounters in schedule_test.go.)
	const dim = 4
	body := func(p *Proc) {
		for i := 0; i < 20; i++ {
			exerciseBody(p)
			// Binomial-tree broadcast from processor 0.
			buf := p.GetBuf(16)
			for d := 0; d < dim; d++ {
				switch low := p.ID() & (1<<d - 1); {
				case low != 0:
				case p.ID()>>d&1 == 0:
					p.Send(d, d, buf)
				default:
					p.Recycle(buf)
					buf = p.Recv(d, d)
				}
			}
			p.Recycle(buf)
		}
	}
	names := []string{"vmprim_sched_recv_parks_total", "vmprim_pool_gets_total", "vmprim_pool_hits_total", "vmprim_pool_hit_rate"}
	var first []float64
	for range 2 {
		m := MustNew(dim, costmodel.CM2())
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
		snap := m.Metrics().Snapshot()
		m.Close()
		var got []float64
		for _, name := range names {
			v, _ := snap.Value(name)
			got = append(got, v)
		}
		if first == nil {
			first = got
			if got[0] == 0 || got[2] == 0 || got[2] == got[1] {
				t.Fatalf("%v = %v: the body must park and must both hit and miss", names, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("second run: %v = %v, want %v", names, got, first)
		}
	}
}

// pipeline passes laps zero-word messages around the four-processor
// cycle 0 -> 1 -> 3 -> 2 -> 0 of a 2-cube, processor 0 keeping window
// of them in flight. Every processor computes a pseudo-random few
// hundred nanoseconds before each message (slow's delays are four times
// as long).
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
	// Every message of a ping-pong finds its receiver parked, so each
	// one exercises the wake-up of a receiver; the pipeline with a slow
	// stage keeps the links upstream of it full, which exercises the
	// wake-up of senders parked on a full link. A wake-up lost by the
	// engine leaves a processor parked with its message posted; the run
	// queue then empties and the run fails as a reported deadlock. Which
	// wake-up is exercised when depends on which processor runs next, so
	// the stress runs under three schedules.
	const dim = 2
	const rounds = 50_000 // 10^5 zero-word messages per pair and dimension
	const laps = 50_000
	for _, s := range []Schedule{{Policy: "fifo"}, {Policy: "lifo"}, {Policy: "random", Seed: 1}} {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			m := MustNew(dim, costmodel.Ideal())
			s.Apply(m)
			defer m.Close()
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
		})
	}
}

// benchLink times one Run in which every processor executes step b.N
// times, and reports host nanoseconds per link message. One long run
// amortises the per-Run start away, so the profile is the transport.
// arm, if not nil, sets the machine's recorders up before the first Run.
func benchLink(b *testing.B, dim int, arm func(*Machine), step func(p *Proc, i int)) {
	m := MustNew(dim, costmodel.Ideal())
	defer m.Close()
	if arm != nil {
		arm(m)
	}
	run := func(n int) {
		if _, err := m.Run(func(p *Proc) {
			for i := 0; i < n; i++ {
				step(p, i)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	run(64) // create the coroutines, warm the pools
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.LastStats().Messages), "ns/msg")
}

// BenchmarkLinkPingPong is the start-up term alone: two processors,
// strict alternation, zero-word messages, a park per message.
func BenchmarkLinkPingPong(b *testing.B) {
	benchLink(b, 1, nil, func(p *Proc, i int) {
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
	benchLink(b, 6, nil, exchangeStep)
}

// BenchmarkLinkExchangeTraced is BenchmarkLinkExchange with the profiler
// and the message trace armed as a profiled workload arms them (4,096
// messages per sender), building the profile included: the price of
// those two recorders on the message path.
func BenchmarkLinkExchangeTraced(b *testing.B) {
	b.ReportAllocs()
	benchLink(b, 6, func(m *Machine) {
		m.EnableProfile(true)
		m.EnableTrace(4096)
	}, exchangeStep)
}

// BenchmarkLinkExchangeCritPath is BenchmarkLinkExchange with the
// critical path armed, building it included: every send passes charge
// and post with a chain snapshot, every receive resolves one, so this
// is the price of the critical-path recorder on the message path.
func BenchmarkLinkExchangeCritPath(b *testing.B) {
	b.ReportAllocs()
	benchLink(b, 6, func(m *Machine) { m.EnableCritPath(true) }, exchangeStep)
}

var exchangePayload = []float64{1, 2, 3, 4}

func exchangeStep(p *Proc, i int) {
	for d := 0; d < p.Dim(); d++ {
		p.Recycle(p.Exchange(d, i, exchangePayload))
	}
}
