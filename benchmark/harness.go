package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// A client is one closed-loop load generator: it starts its next op
// only after the previous one completed. It carries the spans and the
// oracle records of the op it is running.
type client struct {
	id   int
	tr   *tracer
	recs []callRec
}

// note records what one call of the cycle cost in simulated terms.
func (c *client) note(call string, sim costmodel.Time, st hypercube.Stats) {
	c.recs = append(c.recs, callRec{Call: call, SimUs: float64(sim), Msgs: st.Messages, Words: st.Words})
}

// run executes one SPMD body under a span named call and records its
// simulated cost.
func (c *client) run(call string, m *hypercube.Machine, body func(*hypercube.Proc)) error {
	c.tr.begin(call)
	elapsed, err := m.Run(body)
	c.tr.end()
	if err != nil {
		return fmt.Errorf("%s: %w", call, err)
	}
	c.note(call, elapsed, m.LastStats())
	return nil
}

// An instance is one workload set up on one seed's inputs: machines
// built, inputs distributed, serial references computed.
type instance interface {
	// cycle runs one op for client c: the workload's fixed list of
	// calls, each under a span and each leaving a callRec. It returns
	// an error when a call fails or a result is numerically wrong.
	cycle(c *client) error
	close()
}

// A workloadDef names a workload and fixes its size. Op counts are
// fixed work: a run of S seconds does ops20s*S/20 ops however fast the
// commit under test is, so that allocation counts, simulated message
// counts and retained memory are the same on two commits and only time
// moves.
type workloadDef struct {
	name    string
	why     string
	clients int
	ops20s  int // ops (all clients together) of a 20-second run, sized on a 2-vCPU host
	warmup  int // warm-up ops per client, part of set-up
	short   int // ops of the traced loop run when another workload is the subject
	setup   func(seed int64) (instance, error)
	spans   []spanMetric // the per-layer metrics read off this workload's cycle spans
}

// A counted instance exposes cumulative counters of the layers below
// it. A traced run reads them before and after the traced loop and
// hands the difference to layerMetrics.
type counted interface {
	counters() (map[string]float64, error)
	layerMetrics(delta map[string]float64, sum spanSummary, out map[string]float64) error
}

// ops returns the fixed op count of a run sized for the given seconds,
// a multiple of the client count.
func (d *workloadDef) ops(seconds int) int {
	n := d.ops20s * seconds / 20
	if n < d.clients {
		n = d.clients
	}
	return n - n%d.clients
}

// prepared is an instance with its oracle fixed and its caches warm.
type prepared struct {
	inst    instance
	expect  []callRec
	clients []*client
}

// prepare sets the workload up: inputs from the seed, machines or
// server, then the warm-up ops. The oracle is the golden cycle for the
// seeds the golden file covers; for any other seed the first cycle is
// the oracle for the rest.
func prepare(def *workloadDef, seed int64, gold golden, warmup int) (*prepared, error) {
	inst, err := def.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	p := &prepared{inst: inst, expect: gold.cycle(def.name, seed)}
	for i := 0; i < def.clients; i++ {
		p.clients = append(p.clients, &client{id: i})
	}
	first := p.clients[0]
	if err := inst.cycle(first); err != nil {
		inst.close()
		return nil, fmt.Errorf("%s first cycle: %w", def.name, err)
	}
	if p.expect == nil {
		p.expect = append([]callRec(nil), first.recs...)
	}
	// A warm-up op that fails would fail again in the measured loop,
	// which is where failures are counted.
	p.loop(warmup*def.clients, traceNone, 1)
	return p, nil
}

// loopResult is what one closed loop measured.
type loopResult struct {
	ops      int // attempted
	failed   int
	firstErr error
	lat      []float64       // wall ms of every op, ascending
	latPlain []float64       // under traceAlternate: the untraced ops' wall ms
	latTrace []float64       // and the traced ops'
	done     []time.Duration // completion time of every op since the loop started, ascending
	wall     time.Duration   // calibration pauses left out, as in done
	calib    calibSamples    // every calibration of the loop
	mallocs  uint64          // heap objects allocated during the loop
	bytes    uint64          // heap bytes allocated during the loop
	heap0    uint64          // live heap after a forced GC before the loop
	heap1    uint64          // and after one at its end
	spans    []span
	simUs    float64 // exact simulated counts of one op, from the oracle
	simMsgs  int64
	simWords int64
}

// traceMode says which ops of a loop record spans.
type traceMode int

const (
	traceNone traceMode = iota
	traceAll
	// traceAlternate traces every other op of each client, so that the
	// traced and the untraced ops see the same host conditions and their
	// latencies can be compared.
	traceAlternate
)

// traces reports whether a client's op-th op records spans.
func (m traceMode) traces(op int) bool {
	return m == traceAll || m == traceAlternate && op%2 == 0
}

// loop runs ops ops in a closed loop split evenly over the clients and
// checks every op against the oracle. The count is the whole contract:
// a slow host takes longer, it does not do less. segments > 1 cuts the
// loop into that many stretches and calibrates the host before each and
// after the last, while no op is in flight; the time that takes is left
// out of every reported time.
func (p *prepared) loop(ops int, mode traceMode, segments int) loopResult {
	perClient := ops / len(p.clients)
	if segments > perClient {
		segments = perClient
	}
	type clientOut struct {
		lat      []float64
		done     []time.Duration
		failed   int
		firstErr error
	}
	outs := make([]clientOut, len(p.clients))
	for i := range outs {
		outs[i].lat = make([]float64, 0, perClient)
		outs[i].done = make([]time.Duration, 0, perClient)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	tracers := make([]*tracer, len(p.clients))
	for i, c := range p.clients {
		if mode != traceNone {
			tracers[i] = &tracer{epoch: start, client: c.id}
		}
	}
	var samples calibSamples
	var paused time.Duration // calibration time so far; written only between stretches
	calib := func() {
		if segments > 1 {
			t0 := time.Now()
			handoff, loops := calibrate()
			samples.handoff = append(samples.handoff, ms(handoff))
			samples.loops = append(samples.loops, ms(loops))
			paused += time.Since(t0)
		}
	}
	var wg sync.WaitGroup
	for seg := 0; seg < segments; seg++ {
		calib()
		lo, hi := seg*perClient/segments, (seg+1)*perClient/segments
		for i, c := range p.clients {
			wg.Add(1)
			go func(c *client, tr *tracer, out *clientOut) {
				defer wg.Done()
				defer func() { c.tr = nil }()
				for op := lo; op < hi; op++ {
					c.recs = c.recs[:0]
					c.tr = nil
					if mode.traces(op) {
						c.tr = tr
						tr.op = op
					}
					t0 := time.Now()
					c.tr.begin("cycle")
					err := p.inst.cycle(c)
					c.tr.end()
					end := time.Now()
					out.lat = append(out.lat, ms(end.Sub(t0)))
					out.done = append(out.done, end.Sub(start)-paused)
					if err == nil {
						if d := diffCycle(c.recs, p.expect); d != "" {
							err = errors.New(d)
						}
					}
					if err != nil {
						out.failed++
						if out.firstErr == nil {
							out.firstErr = fmt.Errorf("client %d op %d: %w", c.id, op, err)
						}
					}
				}
			}(c, tracers[i], &outs[i])
		}
		wg.Wait()
	}
	calib()
	wall := time.Since(start) - paused
	runtime.ReadMemStats(&after)
	r := loopResult{
		wall:    wall,
		calib:   samples,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		heap0:   before.HeapAlloc,
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.heap1 = after.HeapAlloc

	for i, out := range outs {
		r.ops += len(out.lat)
		r.failed += out.failed
		if r.firstErr == nil {
			r.firstErr = out.firstErr
		}
		r.lat = append(r.lat, out.lat...)
		r.done = append(r.done, out.done...)
		if mode == traceAlternate {
			for op, l := range out.lat {
				if mode.traces(op) {
					r.latTrace = append(r.latTrace, l)
				} else {
					r.latPlain = append(r.latPlain, l)
				}
			}
		}
		if tr := tracers[i]; tr != nil {
			fillSelf(tr.spans)
			base := len(r.spans)
			for _, s := range tr.spans {
				if s.Parent >= 0 {
					s.Parent += base
				}
				r.spans = append(r.spans, s)
			}
		}
	}
	sort.Float64s(r.lat)
	sort.Slice(r.done, func(a, b int) bool { return r.done[a] < r.done[b] })
	r.simUs, r.simMsgs, r.simWords = simTotals(p.expect)
	return r
}

// opsPerSec is the median-segment rate of the loop.
func (r loopResult) opsPerSec() float64 { return segmentRate(r.done, 5) }

func (r loopResult) perOp(total uint64) float64 {
	if r.ops == 0 {
		return 0
	}
	return float64(total) / float64(r.ops)
}

// retainedKBPerOp is how much the live heap grew over the loop per op:
// 0 for a leak-free steady state.
func (r loopResult) retainedKBPerOp() float64 {
	if r.ops == 0 {
		return 0
	}
	return (float64(r.heap1) - float64(r.heap0)) / 1024 / float64(r.ops)
}

// setupRepeats is how often an untraced run sets its workload up; the
// reported set-up time is the median.
const setupRepeats = 5

// measureUntraced is one end-to-end run: set up setupRepeats times,
// keep the last instance, run the fixed op count with tracing off.
func measureUntraced(def *workloadDef, seed int64, gold golden, ops, warmup, repeats int) (setupS float64, r loopResult, err error) {
	var p *prepared
	times := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if p != nil {
			p.inst.close()
		}
		t0 := time.Now()
		if p, err = prepare(def, seed, gold, warmup); err != nil {
			return 0, loopResult{}, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer p.inst.close()
	return median(times), p.loop(ops, traceNone, calibSegments), nil
}

// peakRSSMB reads the process's resident-set high-water mark, 0 where
// /proc does not offer it.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
