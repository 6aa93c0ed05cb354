package hypercube

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
)

// exchangeDim picks the dimension a processor uses in the mismatched
// exchange below: the parity of the two address bits. Flipping either
// bit changes the parity, so every processor's chosen partner picked
// the other dimension — all four processors send, then block in Recv
// forever, a genuine all-blocked deadlock with every link holding one
// undelivered message.
func exchangeDim(id int) int { return (id & 1) ^ ((id >> 1) & 1) }

func TestDeadlockPostMortemNamesEveryBlockedProc(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	defer m.Close()
	const tag = 9
	_, err := m.Run(func(p *Proc) {
		p.Exchange(exchangeDim(p.id), tag, []float64{1, 2, 3})
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run error = %v, want deadlock", err)
	}

	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not wrap *RunError", err)
	}
	rep := re.Report
	if rep == nil || rep != m.PostMortem() {
		t.Fatalf("report %p not surfaced via PostMortem (%p)", rep, m.PostMortem())
	}
	if !strings.Contains(rep.Cause, "deadlock") {
		t.Fatalf("cause = %q, want deadlock", rep.Cause)
	}
	if rep.Blocked != 4 || len(rep.Procs) != 4 {
		t.Fatalf("blocked = %d/%d procs, want 4/4", rep.Blocked, len(rep.Procs))
	}
	for pid, ps := range rep.Procs {
		if ps.Wait != "recv" || ps.WaitDim != exchangeDim(pid) || ps.WaitTag != tag {
			t.Fatalf("proc %d blocked on %q dim %d tag %d, want recv dim %d tag %d",
				pid, ps.Wait, ps.WaitDim, ps.WaitTag, exchangeDim(pid), tag)
		}
		// Flight events are in virtual-time (causal) order.
		for i := 1; i < len(ps.Events); i++ {
			if ps.Events[i].VT < ps.Events[i-1].VT {
				t.Fatalf("proc %d events out of VT order: %+v", pid, ps.Events)
			}
		}
		// The one send each processor completed is on the record.
		found := false
		for _, ev := range ps.Events {
			if ev.Kind == flightrec.KindSend && ev.Dim == exchangeDim(pid) && ev.Tag == tag && ev.Words == 3 {
				found = true
			}
		}
		if !found {
			t.Fatalf("proc %d flight record missing its send: %+v", pid, ps.Events)
		}
	}
	// Every link holds exactly the one message its receiver never took.
	if len(rep.Links) != 4 {
		t.Fatalf("links = %+v, want 4 occupied", rep.Links)
	}
	for _, l := range rep.Links {
		if l.Queued != 1 || l.QueuedWords != 3 || l.HeadTag != tag {
			t.Fatalf("link %+v, want 1 msg of 3 words tag %d", l, tag)
		}
		if l.Dim != exchangeDim(l.Src) || l.Dst != l.Src^(1<<l.Dim) {
			t.Fatalf("link %+v inconsistent with the mismatched exchange", l)
		}
	}
	if !m.linksEmpty() {
		t.Fatal("links not drained after post-mortem census")
	}

	// Both renderings work on a real report.
	var txt, js bytes.Buffer
	rep.WriteText(&txt)
	for _, want := range []string{"blocked 4/4 procs", "recv dim 0 tag 9", "recv dim 1 tag 9", "undelivered link messages"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, txt.String())
		}
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}

	// A subsequent successful run clears the post-mortem.
	if _, err := m.Run(func(p *Proc) { p.Barrier(p.FullMask(), 1) }); err != nil {
		t.Fatal(err)
	}
	if m.PostMortem() != nil {
		t.Fatal("PostMortem not cleared by a successful run")
	}
}

func TestTagMismatchCapturesPayload(t *testing.T) {
	m := MustNew(1, costmodel.CM2())
	defer m.Close()
	payload := []float64{42, 43, 44, 45, 46}
	_, err := m.Run(func(p *Proc) {
		if p.id == 0 {
			p.Send(0, 5, payload)
			return
		}
		p.Recv(0, 6)
	})
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("Run error = %v, want tag mismatch", err)
	}
	rep := m.PostMortem()
	if rep == nil || rep.FailedProc != 1 {
		t.Fatalf("report %+v, want failure on proc 1", rep)
	}
	caps := rep.Procs[1].Captured
	if len(caps) != 1 || caps[0].Len != 5 {
		t.Fatalf("captured = %+v, want the 5-word payload", caps)
	}
	if len(caps[0].Head) != 4 || caps[0].Head[0] != 42 {
		t.Fatalf("captured head = %v, want first 4 words starting at 42", caps[0].Head)
	}
}

func TestFlightRecorderDepthBoundsReportTail(t *testing.T) {
	m := MustNew(1, costmodel.CM2())
	defer m.Close()
	m.SetFlightRecorderDepth(4)
	_, err := m.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Recycle(p.Exchange(0, i, []float64{float64(i)}))
		}
		panic("stop here")
	})
	if err == nil || !strings.Contains(err.Error(), "stop here") {
		t.Fatalf("Run error = %v, want injected panic", err)
	}
	rep := m.PostMortem()
	for pid, ps := range rep.Procs {
		if len(ps.Events) != 4 {
			t.Fatalf("proc %d kept %d events, want ring depth 4", pid, len(ps.Events))
		}
		if ps.EventsTotal != 20 { // 10 sends + 10 recvs
			t.Fatalf("proc %d events_total = %d, want 20", pid, ps.EventsTotal)
		}
		// The tail is the newest events: the last recorded exchanges.
		if ps.Events[len(ps.Events)-1].Tag != 9 {
			t.Fatalf("proc %d tail = %+v, want newest tag 9", pid, ps.Events)
		}
	}
	m.SetFlightRecorderDepth(defaultFlightDepth)
}

func TestPostMortemOpenSpansAndCollectives(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	defer m.Close()
	m.EnableProfile(true)
	_, err := m.Run(func(p *Proc) {
		p.BeginSpan("phase")
		// The shape of a collective entry, as internal/collective does
		// it: its own span plus a NoteCollective (the real package is
		// not importable from here without a cycle).
		p.BeginSpan("bcast")
		p.NoteCollective("bcast", p.FullMask(), 3)
		p.Barrier(p.FullMask(), 3)
		p.EndSpan()
		panic("mid-phase failure")
	})
	if err == nil {
		t.Fatal("expected the injected panic")
	}
	rep := m.PostMortem()
	if rep == nil {
		t.Fatal("no post-mortem")
	}
	for pid, ps := range rep.Procs {
		// Every processor died inside the phase; ones aborted while
		// still in the barrier also have the bcast span open.
		if len(ps.OpenSpans) == 0 || ps.OpenSpans[0] != "phase" {
			t.Fatalf("proc %d open spans = %v, want phase outermost", pid, ps.OpenSpans)
		}
		foundColl := false
		for _, ev := range ps.Events {
			if ev.Label == "bcast" {
				foundColl = true
				// The collective entry is recorded inside its own span,
				// nested under the still-open phase (depth 2).
				if ev.SpanName != "bcast" || ev.Depth != 2 {
					t.Fatalf("proc %d bcast event span = %q depth %d, want bcast at depth 2", pid, ev.SpanName, ev.Depth)
				}
			}
		}
		if !foundColl {
			t.Fatalf("proc %d flight record missing the bcast entry: %+v", pid, ps.Events)
		}
	}
	m.EnableProfile(false)
}

// goldenPostMortemBody is a profiled 3-cube program that fails on
// purpose, shaped so its post-mortem shows every part of a flight
// record: nested spans, several distinct collective labels, a captured
// payload, and rings that have wrapped. Each step is a hand-rolled
// all-reduce over the cube, a broadcast inside each 2-subcube and an
// exchange along dimension 2 (internal/collective cannot be imported
// from here without a cycle). In step failStep processor 5 expects the
// wrong tag and dies of a tag mismatch; the others are aborted where
// they stand, most of them blocked in a receive.
func goldenPostMortemBody(p *Proc) {
	const steps, failStep = 5, 3
	p.BeginSpan("solve")
	for step := 0; step < steps; step++ {
		p.BeginSpan("step")

		p.BeginSpan("all-reduce")
		tag := 10 + step
		p.NoteCollective("all-reduce", p.FullMask(), tag)
		acc := p.GetBuf(2)
		acc[0], acc[1] = float64(p.ID()), float64(step)
		for d := 0; d < p.Dim(); d++ {
			got := p.Exchange(d, tag, acc)
			acc[0] += got[0]
			p.Compute(2)
			p.Recycle(got)
		}
		p.EndSpan()

		p.BeginSpan("row")
		p.BeginSpan("bcast")
		tag = 20 + step
		p.NoteCollective("bcast", 3, tag)
		for d := 0; d < 2; d++ {
			switch low := p.ID() & (1<<d - 1); {
			case low != 0:
			case p.ID()>>d&1 == 0:
				p.Send(d, tag, acc)
			default:
				p.Recycle(acc)
				acc = p.Recv(d, tag)
			}
		}
		p.Compute(8 * (p.ID() + 1))
		p.EndSpan()
		p.EndSpan()

		p.BeginSpan("shift")
		tag = 30 + step
		p.NoteCollective("shift", 4, tag)
		p.Send(2, tag, acc)
		want := tag
		if step == failStep && p.ID() == 5 {
			want = 99
		}
		p.Recycle(acc)
		p.Recycle(p.Recv(2, want))
		p.EndSpan()

		p.EndSpan()
	}
	p.EndSpan()
}

// TestPostMortemGolden pins the post-mortem of goldenPostMortemBody,
// JSON and text, byte for byte: event order and sequence numbers,
// labels, span names and depths, clocks, captures and link census.
func TestPostMortemGolden(t *testing.T) {
	m := MustNew(3, costmodel.CM2())
	defer m.Close()
	m.EnableProfile(true)
	if _, err := m.Run(goldenPostMortemBody); err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("Run error = %v, want tag mismatch", err)
	}
	rep := m.PostMortem()
	for _, ps := range rep.Procs {
		if ps.EventsTotal <= uint64(defaultFlightDepth) {
			t.Fatalf("proc %d recorded %d events; the ring must wrap", ps.ID, ps.EventsTotal)
		}
	}
	var js, txt bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	rep.WriteText(&txt)
	for _, g := range []struct {
		file string
		got  []byte
	}{{"postmortem_d3.json", js.Bytes()}, {"postmortem_d3.txt", txt.Bytes()}} {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("post-mortem differs from testdata/%s; got:\n%s", g.file, g.got)
		}
	}
}

func TestMetricsReconcileWithObservability(t *testing.T) {
	m := MustNew(3, costmodel.CM2())
	defer m.Close()
	// Recursive-doubling all-reduce, hand-rolled (internal/collective
	// cannot be imported from here without a cycle).
	body := func(p *Proc) {
		p.NoteCollective("all-reduce", p.FullMask(), 2)
		acc := p.GetBuf(4)
		for i := range acc {
			acc[i] = float64(p.id + i)
		}
		for d := 0; d < p.Dim(); d++ {
			got := p.Exchange(d, 2, acc)
			for i := range acc {
				acc[i] += got[i]
			}
			p.Compute(len(acc))
			p.Recycle(got)
		}
		p.Recycle(acc)
		p.Compute(17)
	}
	if _, err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics().Snapshot()
	st := m.LastStats()

	// Counters reconcile with the machine's own observability surfaces
	// (words vs the always-on per-link counters) and with the program:
	// one message per processor per dimension.
	var linkWords int64
	for _, l := range m.Congestion(0) {
		linkWords += l.Words
	}
	if v, _ := snap.Value("vmprim_words_total"); int64(v) != linkWords || int64(v) != st.Words {
		t.Fatalf("words_total = %v, link sum = %d, stats = %d", v, linkWords, st.Words)
	}
	if v, _ := snap.Value("vmprim_messages_total"); int(v) != m.P()*m.Dim() || int64(v) != st.Messages {
		t.Fatalf("messages_total = %v, want %d, stats = %d", v, m.P()*m.Dim(), st.Messages)
	}
	if v, _ := snap.Value("vmprim_flops_total"); int64(v) != st.Flops {
		t.Fatalf("flops_total = %v, stats = %d", v, st.Flops)
	}
	if v, _ := snap.Value("vmprim_runs_total"); v != 1 {
		t.Fatalf("runs_total = %v, want 1", v)
	}
	if v, _ := snap.Value("vmprim_run_failures_total"); v != 0 {
		t.Fatalf("failures = %v, want 0", v)
	}
	// Every message is one histogram observation; the histogram sum is
	// the total words.
	if v, _ := snap.Value("vmprim_message_words"); int64(v) != st.Messages {
		t.Fatalf("message_words count = %v, want %d", v, st.Messages)
	}
	for _, mv := range snap.Metrics {
		if mv.Name == "vmprim_message_words" && int64(mv.Sum) != st.Words {
			t.Fatalf("message_words sum = %v, want %d", mv.Sum, st.Words)
		}
	}
	// One AllReduce entered per processor.
	if v, _ := snap.Value("vmprim_collectives_total"); v != 8 {
		t.Fatalf("collectives_total = %v, want 8", v)
	}
	if gets, _ := snap.Value("vmprim_pool_gets_total"); gets > 0 {
		hits, _ := snap.Value("vmprim_pool_hits_total")
		if hits > gets {
			t.Fatalf("pool hits %v exceed gets %v", hits, gets)
		}
	}

	// Counters are cumulative across runs; gauges describe the last.
	if _, err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	snap2 := m.Metrics().Snapshot()
	if v, _ := snap2.Value("vmprim_runs_total"); v != 2 {
		t.Fatalf("runs_total after 2nd run = %v, want 2", v)
	}
	if v, _ := snap2.Value("vmprim_words_total"); int64(v) != 2*st.Words {
		t.Fatalf("words_total after 2nd run = %v, want %d", v, 2*st.Words)
	}
	if v, _ := snap2.Value("vmprim_last_elapsed_us"); v != float64(m.Elapsed()) {
		t.Fatalf("last_elapsed_us = %v, want %v", v, float64(m.Elapsed()))
	}
	// The second run hits the warmed pool on every get.
	if v, _ := snap2.Value("vmprim_pool_hit_rate"); v != 1 {
		t.Fatalf("pool_hit_rate = %v, want 1 on the warmed second run", v)
	}
}
