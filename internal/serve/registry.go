package serve

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/flightrec"
	"vmprim/internal/metrics"
)

// The run registry: every submitted workload becomes a Run with a
// server-assigned ID, and the registry keeps finished runs — results,
// per-run metrics, post-mortems — addressable until capacity
// pressure evicts them. Queued and running runs are never evicted;
// only the done/failed backlog is bounded, oldest-completed first. IDs
// are issued in sequence and runs leave only by eviction, so an issued
// ID that is no longer retained is one that aged out: the API tells
// that apart from "never heard of it" without remembering evicted IDs.

// RunState is a run's lifecycle phase.
type RunState string

const (
	StateQueued  RunState = "queued"
	StateRunning RunState = "running"
	StateDone    RunState = "done"
	StateFailed  RunState = "failed"
)

// Run is one submitted workload and, once executed, its artifacts.
// Fields under mu change as the run progresses; everything else is
// written once before the run is published.
type Run struct {
	// ID is the server-assigned identifier, "r-000001" onward; seq is
	// its number.
	ID  string
	seq int64
	// Spec is the normalized workload descriptor.
	Spec bench.RunSpec
	// Submitted is the wall-clock arrival time (serving metadata only —
	// simulated artifacts carry no host time).
	Submitted time.Time

	// bcast fans live stream events out to /events subscribers.
	bcast *broadcaster
	// done is closed when the run reaches a terminal state.
	done chan struct{}

	mu      sync.Mutex
	state   RunState
	err     string
	poolHit bool
	// result is the profiled run; nil until done (and on failures that
	// died before producing one).
	result *bench.ProfileResult
	// runMetrics is this run's own metrics: its machine's snapshot,
	// which counts only this run because the pool zeroes the registry
	// of the machine it hands out.
	runMetrics *metrics.Snapshot
	// postmortem is the flight-recorder report of a failed run.
	postmortem *flightrec.Report
}

// newRun builds a queued run around a normalized spec.
func newRun(id string, spec bench.RunSpec, now time.Time) *Run {
	return &Run{
		ID:        id,
		Spec:      spec,
		Submitted: now,
		bcast:     newBroadcaster(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
}

// State returns the run's current lifecycle phase.
func (r *Run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// terminal reports whether the run has finished (done or failed).
func (r *Run) terminal() bool {
	st := r.State()
	return st == StateDone || st == StateFailed
}

// setRunning marks the run as executing and records whether its
// machine came out of the pool warm.
func (r *Run) setRunning(poolHit bool) {
	r.mu.Lock()
	r.state = StateRunning
	r.poolHit = poolHit
	r.mu.Unlock()
}

// complete publishes the run's terminal state and artifacts, closes
// the event stream and wakes every waiter. Idempotence is not needed:
// exactly one executor owns the run.
func (r *Run) complete(res *bench.ProfileResult, runMetrics *metrics.Snapshot, pm *flightrec.Report, err error) {
	r.mu.Lock()
	if err != nil {
		r.state = StateFailed
		r.err = err.Error()
	} else {
		r.state = StateDone
	}
	r.result = res
	r.runMetrics = runMetrics
	r.postmortem = pm
	r.mu.Unlock()
	r.bcast.close()
	close(r.done)
}

// runArtifacts is a finished run's payload; any field may be nil.
type runArtifacts struct {
	res  *bench.ProfileResult
	snap *metrics.Snapshot
	pm   *flightrec.Report
}

// artifacts returns the run's terminal payload.
func (r *Run) artifacts() runArtifacts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return runArtifacts{r.result, r.runMetrics, r.postmortem}
}

// registry holds runs by ID and bounds the finished backlog.
type registry struct {
	mu     sync.Mutex
	retain int
	seq    int64
	runs   map[string]*Run
	// finished is completion order, oldest first; its head is evicted
	// when the backlog exceeds retain.
	finished []string
}

func newRegistry(retain int) *registry {
	if retain < 1 {
		retain = 1
	}
	return &registry{retain: retain, runs: make(map[string]*Run)}
}

// runID spells the ID of run number n.
func runID(n int64) string { return fmt.Sprintf("r-%06d", n) }

// add registers a new queued run under a fresh ID.
func (g *registry) add(spec bench.RunSpec, now time.Time) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	r := newRun(runID(g.seq), spec, now)
	r.seq = g.seq
	g.runs[r.ID] = r
	return r
}

// get looks a run up; evicted reports an ID that was issued, spelled
// exactly as issued, and is no longer retained.
func (g *registry) get(id string) (r *Run, evicted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r := g.runs[id]; r != nil {
		return r, false
	}
	digits, ok := strings.CutPrefix(id, "r-")
	n, err := strconv.ParseInt(digits, 10, 64)
	return nil, ok && err == nil && n >= 1 && n <= g.seq && runID(n) == id
}

// list returns every retained run, submission (ID) order.
func (g *registry) list() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Run, 0, len(g.runs))
	for _, r := range g.runs {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *Run) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// markFinished enters a terminal run into the bounded backlog and
// evicts beyond the retention cap, returning how many runs fell out.
func (g *registry) markFinished(id string) (evictions int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.finished = append(g.finished, id)
	for len(g.finished) > g.retain {
		victim := g.finished[0]
		g.finished = g.finished[1:]
		delete(g.runs, victim)
		evictions++
	}
	return evictions
}

// counts returns (retained, finished) run counts for the scrape-time
// gauges.
func (g *registry) counts() (retained, finished int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.runs), len(g.finished)
}
