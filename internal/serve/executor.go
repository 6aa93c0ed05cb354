package serve

import (
	"errors"

	"vmprim/internal/bench"
	"vmprim/internal/flightrec"
	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
)

// The executor: a fixed pool of worker goroutines drains the submit
// queue, each run borrowing a persistent Machine of the spec's
// dimension from the LRU pool. The spec's cost model is handed to the
// acquisition, not made part of the key: a warm machine's state
// depends on its dimension and traffic only, so a d=4 ipsc run reuses
// the cube a d=4 cm2 run just released, priced by ipsc. Recorders are
// armed exactly as `vmprim -profile` arms them — profiler, message
// trace, critical-path tracer — so the artifacts a run serves are the
// same documents the CLI writes for the same spec. The pool hands out
// a machine whose metrics registry is zeroed, so a run's own metrics
// are its machine's snapshot, failed runs included; they also fold
// into the server-wide aggregate that /metrics exposes.

// worker drains the queue until the server closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for run := range s.queue {
		s.execute(run)
	}
}

// execute runs one submitted workload to its terminal state.
func (s *Server) execute(run *Run) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	s.met.runsStarted.Add(1)

	m, hit, err := s.pool.Acquire(run.Spec.D, run.Spec.CostParams())
	if err != nil {
		s.finishRun(run, nil, nil, nil, err)
		return
	}
	if hit {
		s.met.poolHits.Add(1)
	} else {
		s.met.poolMisses.Add(1)
	}
	run.setRunning(hit)

	m.EnableStream(run.bcast.publish)
	res, err := run.Spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})
	m.EnableStream(nil)
	runMetrics := m.Metrics().Snapshot()

	// A failed run tears down cleanly (a panic or a detected deadlock
	// aborts it and every processor unwinds before Run returns), so the
	// machine goes back to the pool either way.
	s.pool.Release(m)

	var pm *flightrec.Report
	if err != nil {
		var re *hypercube.RunError
		if errors.As(err, &re) {
			pm = re.Report
		}
	}
	s.finishRun(run, res, runMetrics, pm, err)
}

// finishRun folds the run's metrics into the server-wide aggregate,
// applies retention to the backlog and then publishes the terminal
// state. Completion comes last: it wakes /wait and the SSE readers, and
// a client acting on that must find the counters, the aggregate and the
// evictions already in place.
func (s *Server) finishRun(run *Run, res *bench.ProfileResult, runMetrics *metrics.Snapshot, pm *flightrec.Report, err error) {
	if err != nil {
		s.met.runsFailed.Add(1)
	} else {
		s.met.runsDone.Add(1)
	}
	if d := run.bcast.droppedEvents(); d > 0 {
		s.met.eventsDropped.Add(d)
	}
	if runMetrics != nil {
		s.aggMu.Lock()
		s.simAgg = metrics.Merge(s.simAgg, runMetrics)
		s.aggMu.Unlock()
	}
	if n := s.reg.markFinished(run.ID); n > 0 {
		s.met.runsEvicted.Add(int64(n))
	}
	run.complete(res, runMetrics, pm, err)
}
