package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vmprim/internal/bench"
	"vmprim/internal/obs"
	"vmprim/internal/testutil"
)

// These tests exist for the race detector: the broadcaster is the one
// piece of the serving plane where the simulator's stream goroutine,
// every SSE handler goroutine and the run-completion path all touch
// the same state. check.sh runs this package under -race with a
// bounded -timeout, so a lock left held or a send that blocks fails
// here by name instead of hanging the gate.

// TestPublishNeverBlocks: publish runs inline on the run's only
// thread, so a subscriber that never drains must cost dropped events,
// never a blocked publisher; and a publish after close must leave the
// broadcaster's lock free.
func TestPublishNeverBlocks(t *testing.T) {
	b := newBroadcaster()
	_, live := b.subscribe() // never drained
	within(t, "publishing 2*subBuffer events to a stalled subscriber", func() {
		for n := 0; n < 2*subBuffer; n++ {
			b.publish(obs.StreamEvent{Kind: obs.EvProgress, VTUs: float64(n)})
		}
	})
	if len(live) != subBuffer {
		t.Fatalf("stalled subscriber holds %d events, want its full buffer of %d", len(live), subBuffer)
	}
	var dropped int64
	within(t, "droppedEvents", func() { dropped = b.droppedEvents() })
	if dropped != subBuffer {
		t.Fatalf("droppedEvents = %d, want %d", dropped, subBuffer)
	}
	b.close()
	within(t, "a publish after close", func() { b.publish(obs.StreamEvent{Kind: obs.EvProgress}) })
	within(t, "droppedEvents after a late publish", func() { dropped = b.droppedEvents() })
	if dropped != subBuffer {
		t.Fatalf("droppedEvents after close = %d, want %d (a late publish drops uncounted)", dropped, subBuffer)
	}
}

// TestBroadcasterChurn hammers one broadcaster with concurrent
// publishers and subscribe/drain/unsubscribe churn, then closes it and
// checks the terminal contract: replay-only subscriptions, dropped
// publishes, idempotent close.
func TestBroadcasterChurn(t *testing.T) {
	defer testutil.CheckLeaks(t, testutil.Snapshot())
	const (
		publishers = 4
		perPub     = 1500 // 4*1500 > bcastHistory forces replay-bound drops
		churners   = 4
		cycles     = 200
	)
	b := newBroadcaster()
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; n < perPub; n++ {
				b.publish(obs.StreamEvent{Kind: obs.EvProgress, VTUs: float64(seed*perPub + n)})
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < cycles; n++ {
				_, live := b.subscribe()
				if live == nil {
					t.Error("subscribe returned no live channel before close")
					return
				}
				for j := 0; j < 4; j++ {
					select {
					case <-live:
					default:
					}
				}
				b.unsubscribe(live)
			}
		}()
	}
	wg.Wait()

	b.close()
	replay, live := b.subscribe()
	if live != nil {
		t.Fatal("subscribe after close returned a live channel")
	}
	if len(replay) != bcastHistory {
		t.Fatalf("replay holds %d events, want the full %d-event bound", len(replay), bcastHistory)
	}
	if d := b.droppedEvents(); d < int64(publishers*perPub-bcastHistory) {
		t.Fatalf("droppedEvents = %d, want at least the %d beyond the replay bound",
			d, publishers*perPub-bcastHistory)
	}
	b.publish(obs.StreamEvent{Kind: obs.EvProgress}) // late publish drops silently
	b.close()                                        // second close is a no-op, not a panic
}

// churnSpec is a served run that publishes for long enough (about a
// tenth of a second on a 2-vCPU host, longer under -race) for the SSE
// clients below to connect and hang up while it still runs; testSpec's
// E1 run finishes before the first of them connects.
var churnSpec = bench.RunSpec{Exp: "E4", D: 6, N: 256}

// TestEventsSSEChurn churns real SSE clients — connect, read a little,
// disconnect mid-stream — against a live run, racing the handler's
// unsubscribe path with the worker goroutine's publishes, then checks
// a final full read of the stream still terminates with a done frame.
// At least one client must have read a frame and hung up before the
// run finished, or the race was not run.
func TestEventsSSEChurn(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	st := postSpec(t, ts.URL, churnSpec, http.StatusAccepted)
	run, _ := s.reg.get(st.ID)
	url := ts.URL + "/runs/" + st.ID + "/events"

	var midRun atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				ctx, cancel := context.WithCancel(context.Background())
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				// Read at most one buffer of frames, then hang up: the
				// handler sees the context cancellation and unsubscribes
				// while the run keeps publishing.
				buf := make([]byte, 2048)
				k, _ := resp.Body.Read(buf)
				select {
				case <-run.done:
				default:
					if frame := string(buf[:k]); strings.Contains(frame, "event: ") && !strings.Contains(frame, "event: done") {
						midRun.Add(1)
					}
				}
				cancel()
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	var fin runStatusJSON
	decodeBody(t, mustGet(t, ts.URL+"/runs/"+st.ID+"/wait", http.StatusOK), &fin)
	if fin.State != StateDone {
		t.Fatalf("run finished %s: %s", fin.State, fin.Error)
	}
	if midRun.Load() == 0 {
		t.Fatal("no SSE client read a frame and hung up while the run was publishing")
	}
	resp := mustGet(t, url, http.StatusOK)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "event: done") {
		t.Fatal("post-churn replay stream has no done frame")
	}
}
