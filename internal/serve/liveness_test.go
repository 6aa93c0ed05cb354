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
// effect). It returns once the run is running, not merely taken off
// the queue: the worker counts a run as started before it acquires a
// machine and marks it running.
func stallWorker(t *testing.T, s *Server, base string) (release func()) {
	t.Helper()
	s.aggMu.Lock()
	release = sync.OnceFunc(s.aggMu.Unlock)
	st := postSpec(t, base, testSpec, http.StatusAccepted)
	run, _ := s.reg.get(st.ID)
	for deadline := time.Now().Add(5 * time.Second); run.State() != StateRunning; {
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

// TestArtifactEndpointsByState pins the answer of each artifact
// endpoint in each state a run is read in: 409 not_finished while it
// runs, its document once it is done (a run that did not fail has no
// post-mortem), and 404 no_artifact for a run refused at submission,
// which failed before any simulation and whose post-mortem answer says
// that only a failed simulation has one.
func TestArtifactEndpointsByState(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := stallWorker(t, s, ts.URL)
	defer release()
	postSpec(t, ts.URL, testSpec, http.StatusAccepted) // fills the queue
	if status, code, err := submit(ts.URL); err != nil || status != http.StatusServiceUnavailable || code != "queue_full" {
		t.Fatalf("submission to a full queue = %d %q (%v), want 503 queue_full", status, code, err)
	}
	runs := s.reg.list() // submission order: running, queued, refused
	if len(runs) != 3 || runs[0].State() != StateRunning || runs[2].State() != StateFailed {
		t.Fatalf("want a running, a queued and a refused run, have %d runs", len(runs))
	}
	endpoints := []string{"profile", "trace", "critpath", "metrics", "metrics?format=prom", "postmortem"}
	const noPostmortem = "only a run whose simulation failed has one"
	check := func(state string, run *Run, want map[string]string) {
		t.Helper()
		for _, ep := range endpoints {
			resp, err := http.Get(ts.URL + "/runs/" + run.ID + "/" + ep)
			if err != nil {
				t.Fatal(err)
			}
			var e struct {
				Error apiError `json:"error"`
			}
			got := "200"
			if resp.StatusCode != http.StatusOK {
				_ = json.NewDecoder(resp.Body).Decode(&e)
				got = fmt.Sprintf("%d %s", resp.StatusCode, e.Error.Code)
			}
			resp.Body.Close()
			if got != want[ep] {
				t.Errorf("%s run: GET %s = %s, want %s", state, ep, got, want[ep])
			}
			if ep == "postmortem" && e.Error.Code == "no_artifact" && !strings.Contains(e.Error.Message, noPostmortem) {
				t.Errorf("%s run: post-mortem answer %q does not say %q", state, e.Error.Message, noPostmortem)
			}
		}
	}
	all := func(answer string) map[string]string {
		m := map[string]string{}
		for _, ep := range endpoints {
			m[ep] = answer
		}
		return m
	}
	check("running", runs[0], all("409 not_finished"))
	check("refused", runs[2], all("404 no_artifact"))
	release()
	within(t, "the released run's completion", func() { <-runs[0].done })
	done := all("200")
	done["postmortem"] = "404 no_artifact"
	check("done", runs[0], done)
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

// TestStalledScrapeStallsNoRun: a /metrics client that stops reading
// holds up its own scrape only; a run submitted meanwhile folds its
// metrics into the aggregate and finishes.
func TestStalledScrapeStallsNoRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	w := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), unblock: make(chan struct{})}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		s.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}()
	defer func() {
		close(w.unblock)
		<-handled
	}()
	<-w.writing
	st := postSpec(t, ts.URL, testSpec, http.StatusAccepted)
	var fin runStatusJSON
	var err error
	within(t, "a run while a scrape stalls", func() { err = getJSON(ts.URL+"/runs/"+st.ID+"/wait", &fin) })
	if err != nil || fin.State != StateDone {
		t.Fatalf("run beside a stalled scrape ended %s (%v): %s", fin.State, err, fin.Error)
	}
}
