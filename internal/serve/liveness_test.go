package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Liveness: whatever the executor is doing — busy, draining for Close,
// or stuck behind a client that stopped reading — every other request
// is answered. The tests hold the server's own locks to stop a run at
// a known point, so each waits on nothing but the code under test, and
// each bounded wait (within) fails by name instead of hanging.

// within fails the test if f does not return within 5 s. A blocked f
// leaks its goroutine; the test has failed by then.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// submit posts testSpec and returns the answer's status and, for an
// error answer, its code. It must not call t.Fatal: within runs it off
// the test goroutine.
func submit(base string) (status int, code string, err error) {
	body, _ := json.Marshal(testSpec)
	resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var e struct {
		Error apiError `json:"error"`
	}
	if resp.StatusCode != http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&e)
	}
	return resp.StatusCode, e.Error.Code, err
}

// stallWorker submits one run and holds it in the single worker: the
// worker finishes simulating it, then waits in finishRun for s.aggMu,
// which the test holds until it calls release (at most once takes
// effect).
func stallWorker(t *testing.T, s *Server, base string) (release func()) {
	t.Helper()
	s.aggMu.Lock()
	release = sync.OnceFunc(s.aggMu.Unlock)
	postSpec(t, base, testSpec, http.StatusAccepted)
	for deadline := time.Now().Add(5 * time.Second); len(s.queue) > 0 || s.met.runsStarted.Value() == 0; {
		if time.Now().After(deadline) {
			release()
			t.Fatal("the worker did not take the first run within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	return release
}

// TestQueueFullAnswersAtOnce: with the worker busy and the queue full,
// a submission is refused with 503 at once, and so is the next one: the
// refusal leaves nothing locked and closes nothing twice. Each refusal
// is a failed run that enters the retention backlog, so with room for
// one finished run the second refusal evicts the first.
func TestQueueFullAnswersAtOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RetainRuns: 1})
	release := stallWorker(t, s, ts.URL)
	defer release()
	postSpec(t, ts.URL, testSpec, http.StatusAccepted) // fills the queue
	for i := 0; i < 2; i++ {
		var status int
		var code string
		var err error
		within(t, "a submission to a full queue", func() { status, code, err = submit(ts.URL) })
		if err != nil || status != http.StatusServiceUnavailable || code != "queue_full" {
			t.Fatalf("submission %d to a full queue = %d %q (%v), want 503 queue_full", i, status, code, err)
		}
	}
	if n := s.met.runsFailed.Value(); n != 2 {
		t.Errorf("vmprimd_run_failures_total = %v after two refusals, want 2", n)
	}
	if n := s.met.runsEvicted.Value(); n != 1 {
		t.Errorf("vmprimd_runs_evicted_total = %v after two refusals with room for one, want 1", n)
	}
}

// TestSubmitDuringCloseAnswersAtOnce: while Close waits for the worker
// to finish its run, submissions are refused with 503 at once.
func TestSubmitDuringCloseAnswersAtOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := stallWorker(t, s, ts.URL)
	defer release()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	// Submissions accepted before Close marks the server closed queue
	// behind the stalled run; the first refusal must come at once.
	for n := 0; ; n++ {
		var status int
		var code string
		var err error
		within(t, "a submission while Close drains", func() { status, code, err = submit(ts.URL) })
		if err != nil {
			t.Fatal(err)
		}
		if status == http.StatusServiceUnavailable && code == "shutting_down" {
			break
		}
		if status != http.StatusAccepted || n == 100 {
			t.Fatalf("submission %d while Close drains = %d %q, want 202 until a 503 shutting_down", n, status, code)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	within(t, "Close after the worker is released", func() { <-closed })
}

// TestStatusAnswersWhileRunning: a run stopped inside its simulation
// (its first stream event waits for the broadcaster's lock, held here)
// leaves its status and the run list readable.
func TestStatusAnswersWhileRunning(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := stallWorker(t, s, ts.URL)
	defer release()
	st := postSpec(t, ts.URL, testSpec, http.StatusAccepted)
	run, _ := s.reg.get(st.ID)
	run.bcast.mu.Lock()
	unlock := sync.OnceFunc(run.bcast.mu.Unlock)
	defer unlock()
	release()

	// Once the run reads running it is inside RunOn, or about to be;
	// keep reading so the later reads find it stopped at the event.
	for n, running := 0, 0; running < 3; n++ {
		var state RunState
		var err error
		within(t, "GET /runs/{id} while the run executes", func() {
			var stat runStatusJSON
			if err = getJSON(ts.URL+"/runs/"+st.ID, &stat); err == nil {
				state = stat.State
			}
		})
		within(t, "GET /runs while a run executes", func() {
			var list struct{ Runs []runStatusJSON }
			err = getJSON(ts.URL+"/runs", &list)
		})
		if err != nil {
			t.Fatal(err)
		}
		if state == StateRunning {
			running++
		} else if n == 1000 {
			t.Fatalf("run still %s after %d reads", state, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	unlock()
	within(t, "the run after its stream is released", func() { <-run.done })
}

// getJSON decodes a 200 answer; like submit, it must not call t.Fatal.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stalledWriter is a client that stops reading: its first Write
// signals writing and then waits for unblock.
type stalledWriter struct {
	header  http.Header
	once    sync.Once
	writing chan struct{}
	unblock chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.unblock
	return len(b), nil
}

// TestStalledClientStallsNoOtherSubmitter: a client that stops reading
// its 503 holds up its own handler only; the next submitter is
// answered.
func TestStalledClientStallsNoOtherSubmitter(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.Close() // every well-formed submission now answers 503 shutting_down
	w := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), unblock: make(chan struct{})}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		s.handleSubmit(w, httptest.NewRequest(http.MethodPost, "/runs", strings.NewReader(`{"exp":"E1"}`)))
	}()
	defer func() {
		close(w.unblock)
		<-handled
	}()
	<-w.writing
	var status int
	var code string
	var err error
	within(t, "a submission while another client stalls", func() { status, code, err = submit(ts.URL) })
	if err != nil || status != http.StatusServiceUnavailable || code != "shutting_down" {
		t.Fatalf("submission beside a stalled client = %d %q (%v), want 503 shutting_down", status, code, err)
	}
}

// TestEventsSubscriberLeavesBeforeRun: a client that subscribes to a
// queued run's events and hangs up before the run starts is
// unsubscribed, and the run then publishes and finishes normally.
func TestEventsSubscriberLeavesBeforeRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := stallWorker(t, s, ts.URL)
	defer release()
	st := postSpec(t, ts.URL, testSpec, http.StatusAccepted)
	run, _ := s.reg.get(st.ID)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/runs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req) // returns once the (empty) replay is flushed
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	subscribers := func() int {
		run.bcast.mu.Lock()
		defer run.bcast.mu.Unlock()
		return len(run.bcast.subs)
	}
	for deadline := time.Now().Add(5 * time.Second); subscribers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the events handler did not unsubscribe within 5s of its client hanging up")
		}
	}

	release()
	var fin runStatusJSON
	var werr error
	within(t, "the run after its subscriber left", func() { werr = getJSON(ts.URL+"/runs/"+st.ID+"/wait", &fin) })
	if werr != nil || fin.State != StateDone {
		t.Fatalf("run ended %s (%v): %s", fin.State, werr, fin.Error)
	}
}
