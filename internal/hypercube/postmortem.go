package hypercube

import (
	"fmt"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
	"vmprim/internal/metrics"
	"vmprim/internal/obs"
)

// Post-mortem assembly and the machine's metrics registry.
//
// Both follow the observability discipline of profile.go: the hot
// paths only bump plain per-processor int64 counters and write into
// preallocated rings; everything here runs once per Run, after every
// processor has returned or failed.

// RunError is the error Run returns when a processor fails. It wraps
// the underlying failure ("hypercube: processor N: ...") so existing
// error-string matching keeps working, and carries the structured
// post-mortem assembled at death. Retrieve it with errors.As from any
// error that wraps a Run failure, or via (*Machine).PostMortem.
type RunError struct {
	// Err is the underlying first failure.
	Err error
	// Report is the post-mortem report of the failed run.
	Report *flightrec.Report
}

// Error includes the underlying failure verbatim and a pointer at the
// report.
func (e *RunError) Error() string {
	return fmt.Sprintf("%v [%d/%d procs blocked; post-mortem attached]",
		e.Err, e.Report.Blocked, e.Report.P)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// PostMortem returns the post-mortem report of the most recent Run,
// or nil if it succeeded. The report is a snapshot; it stays valid
// across later runs.
func (m *Machine) PostMortem() *flightrec.Report { return m.postmortem }

// buildPostMortem assembles the report of a failed run from the
// quiescent per-processor state and the messages still queued on the
// links (which it census-drains; Run's drain afterwards is then a
// no-op).
func (m *Machine) buildPostMortem(cause string, failedPid int) *flightrec.Report {
	rep := &flightrec.Report{
		Cause:      cause,
		FailedProc: failedPid,
		Dim:        m.dim,
		P:          m.p,
	}
	rep.MaxClockUs = float64(m.elapsed)

	rep.Procs = make([]flightrec.ProcState, m.p)
	for pid, pr := range m.procs {
		ps := &rep.Procs[pid]
		ps.ID = pid
		ps.ClockUs = float64(pr.clock)
		ps.BehindUs = float64(m.elapsed - pr.clock)
		ps.Buckets = pr.split().WithIdle(pr.clock)
		if pr.waitKind != flightrec.WaitNone {
			ps.Wait = pr.waitKind.String()
			ps.WaitDim = pr.waitDim
			ps.WaitTag = pr.waitTag
			ps.WaitSinceUs = float64(pr.waitSince)
			rep.Blocked++
		}
		for _, f := range pr.ps.stack {
			ps.OpenSpans = append(ps.OpenSpans, pr.ps.nodes[f.node].Name)
		}
		if pr.hasCaptured {
			head := pr.captured[:min(len(pr.captured), capturedHeadWords)]
			ps.Captured = append(ps.Captured, flightrec.CapturedBuf{
				Len: len(pr.captured), Head: append([]float64(nil), head...),
			})
		}
		ps.Events = pr.rec.Snapshot(nil, &m.labels)
		ps.EventsTotal = pr.rec.Total()
		for i := range ps.Events {
			if n := ps.Events[i].Span; n >= 0 && n < len(pr.ps.nodes) {
				ps.Events[i].SpanName = pr.ps.nodes[n].Name
			}
		}
	}

	// Census-drain the links: every undelivered message becomes link
	// occupancy in the report — the queue a blocked receiver never
	// consumed, or the mate of a mismatched exchange.
	for i := range m.links {
		l := &m.links[i]
		pid, d := i/m.dim, i%m.dim
		queued, words, headTag := 0, 0, 0
		var headVT costmodel.Time
		for {
			msg, ok := m.store.pop(l)
			if !ok {
				break
			}
			if queued == 0 {
				headTag, headVT = msg.tag, msg.arrive
			}
			queued++
			words += len(msg.words)
			m.putChain(msg.cp)
		}
		if queued > 0 {
			rep.Links = append(rep.Links, flightrec.LinkState{
				Src: pid ^ (1 << d), Dim: d, Dst: pid,
				Queued: queued, QueuedWords: words,
				HeadTag: headTag, HeadVT: float64(headVT),
			})
		}
	}
	return rep
}

// capturedHeadWords bounds the payload prefix shown per captured
// buffer in the report.
const capturedHeadWords = 4

// msgWordBounds are the finite upper bounds of the message-size
// histogram (words per link message); msgWordBins mirrors them as ints
// for the hot-path binning and msgHistBins counts the bins including
// the implicit +Inf bucket.
var (
	msgWordBounds = []float64{0, 1, 4, 16, 64, 256, 1024, 4096}
	msgWordBins   = [...]int{0, 1, 4, 16, 64, 256, 1024, 4096}
)

const msgHistBins = len(msgWordBins) + 1

// msgBin returns the non-cumulative histogram bin for an n-word
// message.
func msgBin(n int) int {
	i := 0
	for i < len(msgWordBins) && n > msgWordBins[i] {
		i++
	}
	return i
}

// machMetrics is the machine's metrics registry and its handles.
// Counters are cumulative over the machine's lifetime; gauges describe
// the most recent run.
type machMetrics struct {
	reg *metrics.Registry

	runs, failures           *metrics.Counter
	msgs, words, flops       *metrics.Counter
	colls                    *metrics.Counter
	poolGets, poolHits       *metrics.Counter
	recvParks                *metrics.Counter
	lastElapsed, poolHitRate *metrics.Gauge
	msgWords                 *metrics.Histogram

	// Critical-path gauges, describing the most recent run recorded
	// under EnableCritPath (zero otherwise). Pure virtual-time values:
	// deterministic, and included in determinism comparisons.
	cpCompute, cpStartup    *metrics.Gauge
	cpTransfer, cpIdle      *metrics.Gauge
	cpHops, cpEndProc       *metrics.Gauge
	cpWorstRatio, cpFlagged *metrics.Gauge
}

func newMachMetrics() machMetrics {
	reg := metrics.NewRegistry()
	return machMetrics{
		reg:         reg,
		runs:        reg.Counter("vmprim_runs_total", "SPMD programs executed on this machine"),
		failures:    reg.Counter("vmprim_run_failures_total", "runs that ended in a panic or deadlock"),
		msgs:        reg.Counter("vmprim_messages_total", "link messages sent"),
		words:       reg.Counter("vmprim_words_total", "64-bit words moved over links"),
		flops:       reg.Counter("vmprim_flops_total", "local floating-point operations"),
		colls:       reg.Counter("vmprim_collectives_total", "collective protocol invocations"),
		poolGets:    reg.Counter("vmprim_pool_gets_total", "buffer-pool get requests"),
		poolHits:    reg.Counter("vmprim_pool_hits_total", "buffer-pool gets served from a free list"),
		recvParks:   reg.Counter("vmprim_sched_recv_parks_total", "receives that found their link empty and yielded at the virtual-time frontier"),
		lastElapsed: reg.Gauge("vmprim_last_elapsed_us", "simulated time of the most recent run"),
		poolHitRate: reg.Gauge("vmprim_pool_hit_rate", "fraction of pool gets served from a free list in the most recent run"),
		msgWords:    reg.Histogram("vmprim_message_words", "payload size of link messages in 64-bit words", msgWordBounds),

		cpCompute:    reg.Gauge("vmprim_critpath_compute_us", "compute time on the most recent run's critical path"),
		cpStartup:    reg.Gauge("vmprim_critpath_startup_us", "start-up time on the most recent run's critical path"),
		cpTransfer:   reg.Gauge("vmprim_critpath_transfer_us", "transfer time on the most recent run's critical path"),
		cpIdle:       reg.Gauge("vmprim_critpath_idle_us", "idle time on the most recent run's critical path"),
		cpHops:       reg.Gauge("vmprim_critpath_hops", "cross-processor hops on the most recent run's critical path"),
		cpEndProc:    reg.Gauge("vmprim_critpath_end_proc", "processor the most recent run's critical path ends on"),
		cpWorstRatio: reg.Gauge("vmprim_critpath_conformance_worst_ratio", "largest measured/predicted ratio in the most recent conformance report"),
		cpFlagged:    reg.Gauge("vmprim_critpath_conformance_flagged", "conformance entries exceeding the flagging threshold in the most recent run"),
	}
}

// Metrics returns the machine's metrics registry; snapshot it after
// runs to export JSON or Prometheus text (see internal/metrics).
func (m *Machine) Metrics() *metrics.Registry { return m.met.reg }

// updateMetrics folds the run that just ended into the registry: the
// totals Run took (m.elapsed, m.stats) and the per-processor counters
// only the metrics read. Called once per Run, after every processor has
// returned or failed; crit is the run's critical path, or nil when recording was
// off (the critpath gauges then read zero).
func (m *Machine) updateMetrics(failed bool, crit *obs.CritPath) {
	mm := &m.met
	mm.runs.Add(1)
	if failed {
		mm.failures.Add(1)
	}
	var colls, parks int64
	var hist [msgHistBins]int64
	for _, pr := range m.procs {
		colls += pr.nColl
		parks += pr.nRecvParks
		for i, c := range pr.msgHist {
			hist[i] += c
		}
	}
	mm.msgs.Add(m.stats.Messages)
	mm.words.Add(m.stats.Words)
	mm.flops.Add(m.stats.Flops)
	mm.colls.Add(colls)
	gets, hits := m.pool.gets, m.pool.hits
	mm.poolGets.Add(gets)
	mm.poolHits.Add(hits)
	mm.recvParks.Add(parks)
	mm.lastElapsed.Set(float64(m.elapsed))
	rate := 1.0
	if gets > 0 {
		rate = float64(hits) / float64(gets)
	}
	mm.poolHitRate.Set(rate)
	mm.msgWords.AddBuckets(hist[:], float64(m.stats.Words))
	if crit != nil {
		mm.cpCompute.Set(float64(crit.Buckets.Compute))
		mm.cpStartup.Set(float64(crit.Buckets.Startup))
		mm.cpTransfer.Set(float64(crit.Buckets.Transfer))
		mm.cpIdle.Set(float64(crit.Buckets.Idle))
		mm.cpHops.Set(float64(crit.Hops))
		mm.cpEndProc.Set(float64(crit.EndProc))
		ratio, flagged := crit.WorstConformance()
		mm.cpWorstRatio.Set(ratio)
		mm.cpFlagged.Set(float64(flagged))
	} else {
		for _, g := range []*metrics.Gauge{
			mm.cpCompute, mm.cpStartup, mm.cpTransfer, mm.cpIdle,
			mm.cpHops, mm.cpEndProc, mm.cpWorstRatio, mm.cpFlagged,
		} {
			g.Set(0)
		}
	}
}
