package hypercube

import (
	"runtime"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/testutil"
)

// Tests for the zero-allocation hot paths: the persistent engine, the
// machine's buffer pool, and the dimension-derived link capacity.

func TestLinkCapScalesWithDimension(t *testing.T) {
	// Matched exchange phases only need capacity 1 for deadlock
	// freedom; linkCap provides O(dim) headroom for run-ahead senders.
	prev := 0
	for dim := 0; dim <= 20; dim++ {
		c := linkCap(dim)
		if c < 1 {
			t.Fatalf("linkCap(%d) = %d < 1", dim, c)
		}
		if c < prev {
			t.Fatalf("linkCap not monotone at dim %d: %d < %d", dim, c, prev)
		}
		prev = c
	}
	if got := linkCap(8); got != 36 {
		t.Fatalf("linkCap(8) = %d, want 36", got)
	}
	// Every link of a machine holds exactly linkCap(dim) messages, in
	// order, however far it was drained before being refilled.
	for _, dim := range []int{1, 4, 8} {
		m := MustNew(dim, costmodel.Ideal())
		c := linkCap(dim)
		s, l := &m.store, &m.links[len(m.links)-1]
		pushed, popped := 0, 0
		for round := 0; round <= c+1; round++ {
			for s.push(l, message{tag: pushed}) {
				pushed++
			}
			if pushed-popped != c || !s.full(l) {
				t.Fatalf("dim %d round %d: link holds %d messages (full=%v), want linkCap = %d",
					dim, round, pushed-popped, s.full(l), c)
			}
			for i := 0; i <= round%c; i++ {
				msg, ok := s.pop(l)
				if !ok || msg.tag != popped {
					t.Fatalf("dim %d round %d: pop = tag %d ok %v, want tag %d", dim, round, msg.tag, ok, popped)
				}
				popped++
			}
		}
		m.drain()
		if _, ok := s.pop(l); ok || !l.empty() || !m.linksEmpty() {
			t.Fatalf("dim %d: link not empty after drain", dim)
		}
	}
}

func TestLinksEmptyAfterAbortedRun(t *testing.T) {
	// Processor 0 posts messages nobody consumes and then panics; the
	// post-run drain must leave every link empty.
	m := MustNew(3, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(0, 1, []float64{1, 2, 3})
			p.Send(1, 2, []float64{4})
			p.Send(2, 3, nil)
			panic("abort with messages in flight")
		}
		p.Recv(2, 99) // blocks until the abort
	})
	if err == nil {
		t.Fatal("expected the run to fail")
	}
	if !m.linksEmpty() {
		t.Fatal("links not empty after aborted run")
	}
	// And the machine still works.
	if _, err := m.Run(func(p *Proc) {
		out := p.Exchange(0, 7, []float64{float64(p.ID())})
		if int(out[0]) != p.ID()^1 {
			panic("stale message leaked past drain")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSenderMayMutateSliceAfterSend(t *testing.T) {
	// Send copies the payload into a pooled buffer, so the caller may
	// overwrite its slice immediately — even with pools recycling
	// buffers between iterations.
	m := MustNew(2, costmodel.Ideal())
	if _, err := m.Run(func(p *Proc) {
		buf := make([]float64, 4)
		for i := 0; i < 16; i++ {
			want := float64(p.ID()*100 + i)
			for j := range buf {
				buf[j] = want
			}
			p.Send(0, i, buf)
			for j := range buf {
				buf[j] = -1 // mutate right after Send
			}
			got := p.Recv(0, i)
			for j, v := range got {
				if v != float64((p.ID()^1)*100+i) {
					panic("receiver saw mutated payload at " +
						string(rune('0'+j)))
				}
			}
			p.Recycle(got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// exerciseBody is a deterministic mixed workload: exchanges along every
// dimension with per-processor payload sizes, plus compute charges.
func exerciseBody(p *Proc) {
	buf := p.GetBuf(8)
	for i := range buf {
		buf[i] = float64(p.ID() + i)
	}
	for d := 0; d < p.Dim(); d++ {
		got := p.Exchange(d, 10+d, buf[:1+(p.ID()+d)%5])
		p.Compute(len(got))
		p.Recycle(got)
	}
	p.Recycle(buf)
}

func TestFreshVsReusedMachineDeterminism(t *testing.T) {
	// Repeated runs on one persistent machine must report exactly the
	// same Elapsed and Stats as a fresh machine running the same body:
	// pooling and engine reuse must not leak into simulated results.
	for _, dim := range []int{4, 8} {
		reused := MustNew(dim, costmodel.CM2())
		var elapsed []costmodel.Time
		var stats []Stats
		for i := 0; i < 3; i++ {
			e, err := reused.Run(exerciseBody)
			if err != nil {
				t.Fatalf("dim %d run %d: %v", dim, i, err)
			}
			elapsed = append(elapsed, e)
			stats = append(stats, reused.LastStats())
		}
		fresh := MustNew(dim, costmodel.CM2())
		e, err := fresh.Run(exerciseBody)
		if err != nil {
			t.Fatalf("dim %d fresh: %v", dim, err)
		}
		for i := 1; i < len(elapsed); i++ {
			if elapsed[i] != elapsed[0] || stats[i] != stats[0] {
				t.Fatalf("dim %d: run %d diverged: %v/%+v vs %v/%+v",
					dim, i, elapsed[i], stats[i], elapsed[0], stats[0])
			}
		}
		if e != elapsed[0] || fresh.LastStats() != stats[0] {
			t.Fatalf("dim %d: fresh machine diverged: %v/%+v vs %v/%+v",
				dim, e, fresh.LastStats(), elapsed[0], stats[0])
		}
	}
}

func TestSendRecvSteadyStateAllocs(t *testing.T) {
	// After the pools equilibrate, a run full of Send/Recv pairs must
	// allocate only the per-Run fixed overhead (see
	// TestRunFixedOverheadAllocs), not per-message buffers: 16 procs x
	// 32 exchanges would cost >1000 allocations unpooled.
	m := MustNew(4, costmodel.Ideal())
	const exchanges = 32
	body := func(p *Proc) {
		buf := p.GetBuf(8)
		for i := range buf {
			buf[i] = float64(i)
		}
		for i := 0; i < exchanges; i++ {
			got := p.Exchange(i%4, i, buf)
			p.Recycle(got)
		}
		p.Recycle(buf)
	}
	per := testutil.MallocsPerRun(5, 10, func() {
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
	})
	if per > 200 {
		t.Fatalf("steady-state Send/Recv allocates %.0f objects per run, want <= 200", per)
	}
}

func TestRunFixedOverheadAllocs(t *testing.T) {
	// A successful Run allocates its run context and nothing that grows
	// with p: a panic is recorded in the failing Proc, not sent through
	// a p-slot error channel. d=8 so that anything O(p) shows.
	m := MustNew(8, costmodel.Ideal())
	defer m.Close()
	body := func(p *Proc) {}
	run := func() {
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	if per := testutil.MallocsPerRun(5, 50, run); per > 2 {
		t.Fatalf("empty Run allocates %.1f objects, want <= 2", per)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / 50; per > 512 {
		t.Fatalf("empty Run allocates %.0f bytes, want <= 512", per)
	}
}

func TestPoolGetPutClasses(t *testing.T) {
	var bp bufPool
	// A recycled buffer must come back only for requests it can hold.
	b := bp.get(100)
	if len(b) != 100 || cap(b) < 100 {
		t.Fatalf("get(100): len=%d cap=%d", len(b), cap(b))
	}
	bp.put(b)
	c := bp.get(128)
	if len(c) != 128 {
		t.Fatalf("get(128): len=%d", len(c))
	}
	if cap(c) < 128 {
		t.Fatalf("get(128) returned too-small capacity %d", cap(c))
	}
	// A foreign allocation and a sub-slice are classed by the largest
	// power of two their capacity holds, so they serve only requests
	// that fit: 100 and 50 words of capacity are buffers of 64 and 32.
	for _, tc := range []struct{ capacity, fits int }{{100, 64}, {50, 32}} {
		bp.put(make([]float64, 128)[:10:tc.capacity])
		if b := bp.get(tc.fits + 1); cap(b) < 2*tc.fits {
			t.Fatalf("get(%d) after recycling cap %d: too-small capacity %d", tc.fits+1, tc.capacity, cap(b))
		}
		if b := bp.get(tc.fits); len(b) != tc.fits || cap(b) != tc.capacity {
			t.Fatalf("get(%d) after recycling cap %d: len=%d cap=%d, want the recycled buffer", tc.fits, tc.capacity, len(b), cap(b))
		}
	}
	// Zero-length requests and recycles must be safe.
	z := bp.get(0)
	if len(z) != 0 {
		t.Fatalf("get(0): len=%d", len(z))
	}
	bp.put(z)
	bp.put(nil)
}

func TestCloseIdempotentAndFreshMachineStillRuns(t *testing.T) {
	m := MustNew(3, costmodel.Ideal())
	if _, err := m.Run(func(p *Proc) { p.Compute(1) }); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // must be a no-op
	m2 := MustNew(3, costmodel.Ideal())
	defer m2.Close()
	if _, err := m2.Run(func(p *Proc) { p.Compute(1) }); err != nil {
		t.Fatal(err)
	}
}
