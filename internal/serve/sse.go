package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"vmprim/internal/obs"
)

// Live event fan-out. The simulator's stream sink runs inline on the
// executor worker that called Run, the run's only thread, so the
// broadcaster must never block it: subscribers get buffered channels
// and a subscriber that falls behind loses events (counted, not
// waited for). A bounded replay buffer lets subscribers who connect
// mid-run catch up before going live.

const (
	// bcastHistory bounds the replay buffer per run; a profiled E-series
	// workload emits a few hundred span events, so 4096 keeps whole runs
	// replayable while bounding a pathological one.
	bcastHistory = 4096
	// subBuffer is each subscriber's channel depth.
	subBuffer = 256
)

type broadcaster struct {
	mu      sync.Mutex
	history []obs.StreamEvent
	// histDropped counts events beyond the replay bound (still fanned
	// out live).
	histDropped int64
	subs        map[chan obs.StreamEvent]struct{}
	// dropped counts per-subscriber backpressure losses.
	dropped int64
	closed  bool
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[chan obs.StreamEvent]struct{})}
}

// publish is the obs.StreamSink: record and fan out without blocking.
func (b *broadcaster) publish(ev obs.StreamEvent) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	if len(b.history) < bcastHistory {
		b.history = append(b.history, ev)
	} else {
		b.histDropped++
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.dropped++
		}
	}
	b.mu.Unlock()
}

// subscribe returns the replay snapshot and, unless the stream already
// ended, a live channel the caller must unsubscribe.
func (b *broadcaster) subscribe() (replay []obs.StreamEvent, live chan obs.StreamEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay = append([]obs.StreamEvent(nil), b.history...)
	if b.closed {
		return replay, nil
	}
	live = make(chan obs.StreamEvent, subBuffer)
	b.subs[live] = struct{}{}
	return replay, live
}

func (b *broadcaster) unsubscribe(ch chan obs.StreamEvent) {
	b.mu.Lock()
	if _, ok := b.subs[ch]; ok {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
}

// close ends the stream: live channels close, late publishes drop.
func (b *broadcaster) close() {
	b.mu.Lock()
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
}

// droppedEvents returns the total events lost to slow subscribers or
// the replay bound.
func (b *broadcaster) droppedEvents() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped + b.histDropped
}

// handleEvents serves GET /runs/{id}/events as a Server-Sent-Events
// stream: every simulator stream event as `event: <kind>` with a JSON
// body, then a final `event: done` carrying the run's terminal status
// once it completes (immediately, for runs already finished).
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request, run *Run) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "no_stream", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live := run.bcast.subscribe()
	if live != nil {
		defer run.bcast.unsubscribe(live)
	}
	for _, ev := range replay {
		if writeSSE(w, ev.Kind, ev) != nil {
			return
		}
	}
	fl.Flush()
	if live != nil {
	stream:
		for {
			select {
			case ev, ok := <-live:
				if !ok {
					break stream
				}
				if writeSSE(w, ev.Kind, ev) != nil {
					return
				}
				if len(live) == 0 {
					fl.Flush()
				}
			case <-req.Context().Done():
				return
			}
		}
	}
	// The run is terminal now (the broadcaster closes on completion).
	<-run.done
	_ = writeSSE(w, "done", s.runStatus(run))
	fl.Flush()
}

// writeSSE emits one Server-Sent-Events frame with a JSON data body.
func writeSSE(w http.ResponseWriter, event string, data any) error {
	body, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, body)
	return err
}
