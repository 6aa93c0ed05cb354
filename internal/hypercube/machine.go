// Package hypercube simulates a Boolean-cube (hypercube) distributed-
// memory multiprocessor, the machine model of the SPAA 1989 paper.
//
// A Machine with dimension d has p = 2^d processors, one coroutine
// each, connected by bidirectional links along the d cube dimensions:
// processors a and a XOR 2^i are neighbors along dimension i. All
// inter-processor data moves through these links as messages of 64-bit
// words. Each processor carries a virtual clock driven by the cost
// model in internal/costmodel: a send advances the sender's clock by
// tau + n*t_c, a receive advances the receiver's clock to at least the
// message's arrival time, and local arithmetic advances the clock by
// n*t_f. Every charge but a receive's passes one edge, Proc.charge,
// which splits it across the clock, the compute / start-up / transfer
// buckets and the critical-path chain. The run time of an SPMD program
// is the maximum clock over all processors when every body has
// returned, which is how the Connection Machine timings of the paper
// are reproduced as simulated microseconds independent of the host.
//
// The port model follows the paper's implementation section: by
// default a processor drives one port at a time, so sends on distinct
// dimensions serialize. The all-port machine (every processor can use
// all d links concurrently) is available through the cost model for
// the A1 ablation; ExchangeAll charges the maximum rather than the sum
// of the per-dimension costs under that model.
//
// # Execution
//
// A run has one thread, the goroutine that called Run. Each processor's
// body is a coroutine (iter.Pull) that Run's goroutine resumes from a
// FIFO run queue, so a machine executes one processor at a time and a
// processor runs until it returns or must wait at the virtual-time
// frontier — a Recv whose message has not been posted yet, a Send
// against a full link (run-ahead backpressure, see linkCap), or a
// route's rendezvous the others have not all entered (see Meet). A
// waiting processor records what it waits on and yields; the partner
// that changes that link, or the last processor into the rendezvous,
// puts it back on the queue, and an abort puts back every parked
// processor. A deadlock is exact: the queue is empty while processors
// are still pending, so every one of them waits on a link nobody will
// change or in a rendezvous somebody will never enter. The parked
// processors are then resumed in address order and the lowest reports
// the deadlock; no timer and no timeout are involved.
//
// Simulated results never depend on the order processors run in: every
// directed link is a single-producer single-consumer FIFO (the only
// sender along (dst, d) is dst's dimension-d neighbor), receives are
// addressed by (link, program order) rather than by time, and virtual
// arrival times travel inside the messages; TestScheduleIndependence
// checks it under LIFO and seeded random orders. What the order does
// decide — host-side counters (frontier parks, pool hits) and the
// failure path (who reports a deadlock, what the post-mortem holds) —
// is fixed with it, as FIFO. Parallelism is between runs (separate
// machines run on separate goroutines), not inside one.
package hypercube

import (
	"fmt"
	"iter"
	"math/bits"
	"runtime"
	"weak"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
	"vmprim/internal/obs"
)

// defaultFlightDepth is the per-processor flight-recorder capacity
// (events retained) unless overridden with SetFlightRecorderDepth.
const defaultFlightDepth = 32

// message is one inter-processor transfer: a payload of words, a
// protocol tag for error detection, and the virtual arrival time.
// Under critical-path recording cp carries a snapshot of the sender's
// chain (see critpath.go).
type message struct {
	words  []float64
	tag    int
	arrive costmodel.Time
	cp     *chain
}

// Machine is a simulated hypercube multiprocessor. Construct it with
// New, then execute SPMD programs with Run. A Machine is reusable: Run
// may be called any number of times, sequentially. It is not safe for
// concurrent use: one goroutine at a time calls Run, the Enable*/Set*
// setters and the accessors.
//
// The machine keeps one coroutine per processor alive across Run calls
// (created on the first Run), so benchmark loops and multi-phase
// applications that Run once per step do not pay for creating them
// every call. The coroutines end when Close is called or, failing
// that, when the Machine is garbage collected.
type Machine struct {
	dim    int
	p      int
	params costmodel.Params

	// links[pid*dim+d] is the queue of messages addressed to pid along
	// dimension d; store holds the messages of all of them (see link.go).
	links []link
	store msgStore

	// pool is the buffer pool every processor draws from (see pool.go),
	// chains the free list of critical-path chain snapshots (see
	// critpath.go).
	pool   bufPool
	chains []*chain

	// meeting counts the processors that have entered the rendezvous
	// in progress (see Meet).
	meeting int

	// procs are the persistent per-processor handles, reset and reused
	// by every Run.
	procs []*Proc

	// eng runs the processors, nil until the first Run (see start).
	eng *engine

	elapsed    costmodel.Time
	stats      Stats
	clocks     []costmodel.Time
	traceLimit int

	// Profiling state (see profile.go): profEnabled gates the span
	// machinery for the next Run, profile holds the last profiled
	// run's result.
	profEnabled bool
	profile     *obs.Profile

	// stream is the live event sink armed with EnableStream (see
	// stream.go), nil when streaming is off.
	stream obs.StreamSink

	// Critical-path state (see critpath.go): critEnabled gates chain
	// recording for the next Run, crit holds the last recorded path.
	critEnabled bool
	crit        *obs.CritPath

	// postmortem is the report of the most recent failed Run (see
	// postmortem.go); nil after a successful one. labels names the
	// collective labels in every processor's flight recorder. met is the
	// machine's metrics registry, folded from the per-processor counters
	// once per Run.
	postmortem *flightrec.Report
	labels     flightrec.Labels
	met        machMetrics

	// The scratch arena (see Proc.Scratch): arena pins it from a Run's
	// start, or from its first Scratch call if the Run found none, until
	// the Run ends, nil otherwise; weakArena holds it between Runs;
	// region is the words of each processor's region, the most any
	// processor has held at once in one Run. scratchDone, set only by
	// export_test.go, is handed the words a RewindScratch gives back and
	// the arena's words at the end of every Run that held it.
	arena       *arena
	weakArena   weak.Pointer[arena]
	region      int
	scratchDone func([]float64)
}

// arena is a machine's scratch storage: p equal regions of region
// words, processor pid's starting at pid*region.
type arena struct {
	words  []float64
	region int
}

// engine runs a machine's processors: one coroutine each, resumed one
// at a time from a FIFO run queue by the goroutine that called Run. It
// is an object of its own because it carries the finalizer that ends
// the coroutines of a Machine dropped without Close. The Machine cannot:
// it and its Procs point at each other, and the collector never frees a
// cycle through a finalized object, so a finalizer set there never runs.
// For the same reason the engine holds nothing of the Machine (Run
// passes the processors in), and nothing the coroutines reference
// between runs points back here.
type engine struct {
	cos []coro

	// queue is the run queue, a ring of processor addresses with room
	// for all of them (a processor is on it at most once); qhead is the
	// oldest entry and qlen the number queued.
	queue       []int32
	qhead, qlen int

	// The run in progress: its body (nil between runs), the processors
	// that have not returned yet, and whether one has failed. Once one
	// has, the others consume what was already posted to them and stop
	// where they would otherwise have waited.
	body    func(*Proc)
	pending int
	aborted bool
	// pick, nil (FIFO) outside tests, moves the processor to run next to
	// the head of the queue (see testSched).
	pick func(*engine)
}

// coro is one processor's coroutine. pr is the processor it runs in
// the current Run, set by the scheduler and taken by the coroutine as
// it starts the body, so an idle coroutine pins nothing of the machine.
type coro struct {
	next func() (struct{}, bool)
	stop func()
	pr   *Proc
}

// loop is the body of a processor's coroutine: its share of each Run,
// then a yield until the next Run resumes it. Close (or the engine's
// finalizer) resumes it with stop, and it returns.
func (co *coro) loop(yield func(struct{}) bool) {
	for {
		pr := co.pr
		co.pr = nil
		pr.yield = yield
		pr.runBody()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the engine's body on every processor of procs and
// returns when all of them have returned or failed.
func (e *engine) run(procs []*Proc) {
	e.pending, e.aborted = len(procs), false
	for pid, pr := range procs {
		e.cos[pid].pr = pr
		e.ready(pid)
	}
	for e.pending > 0 {
		if e.qlen == 0 {
			// Nothing can run and processors are pending: every one of
			// them is parked on a link nobody will change. Resumed, each
			// finds its link unchanged and the run not aborted, which
			// is how it knows; the lowest address reports first.
			if e.wakeParked(procs); e.qlen == 0 {
				panic("hypercube: processors pending, none runnable and none parked")
			}
			continue
		}
		if e.pick != nil {
			e.pick(e)
		}
		pid := e.queue[e.qhead]
		e.qhead = (e.qhead + 1) & (len(e.queue) - 1)
		e.qlen--
		e.cos[pid].next()
	}
}

// ready appends processor pid to the run queue.
func (e *engine) ready(pid int) {
	e.queue[(e.qhead+e.qlen)&(len(e.queue)-1)] = int32(pid)
	e.qlen++
}

// wakeParked puts every parked processor, on a link or in a
// rendezvous, back on the run queue, in address order.
func (e *engine) wakeParked(procs []*Proc) {
	for pid, pr := range procs {
		if l := pr.parked; l != nil && l.waiter == int32(pid)+1 {
			l.waiter = 0
			e.ready(pid)
		} else if pr.meet == meetParked {
			pr.meet = meetNone
			e.ready(pid)
		}
	}
}

// abort marks the run failed and wakes every parked processor; a
// processor that would park afterwards sees the mark instead.
func (e *engine) abort(procs []*Proc) {
	if !e.aborted {
		e.aborted = true
		e.wakeParked(procs)
	}
}

// shutdown ends the coroutines.
func (e *engine) shutdown() {
	for i := range e.cos {
		e.cos[i].stop()
	}
}

// linkCap returns the number of messages each link holds in a cube of
// dimension dim. The invariant that sizes it: collectives are built
// from matched exchange phases in which each directed link carries at
// most one message before the partner receives, so capacity 1 already
// guarantees deadlock freedom; TestScheduleIndependence checks that on
// E1–E5, the collectives, the router and every table. Capacity above
// that only controls how far a processor may run ahead of its neighbor
// on one link without yielding; a full-cube collective issues at most
// one message per link per step and has O(dim) steps, so a small
// multiple of dim absorbs a whole collective of run-ahead. Beyond that
// bound the sender yields, which changes the host's schedule but never
// simulated time. Send bursts need linkCap: FuzzTraceFlows's burst
// seeds deadlock at capacity 1, and the stall tests and
// TestLinkCapScalesWithDimension fail there by design.
func linkCap(dim int) int { return 4 * (dim + 1) }

// Stats aggregates communication and arithmetic counters over one Run:
// the same record each processor keeps, summed over the machine.
type Stats = obs.Counts

// MaxDim is the largest dimension New accepts.
const MaxDim = 20

// New returns a machine of dimension dim (2^dim processors) governed
// by the given cost parameters. It returns an error if dim is negative
// or above MaxDim, or if the parameters are invalid.
func New(dim int, params costmodel.Params) (*Machine, error) {
	if dim < 0 || dim > MaxDim {
		return nil, fmt.Errorf("hypercube: dimension %d out of range [0,20]", dim)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := 1 << dim
	m := &Machine{
		dim:    dim,
		p:      p,
		params: params,
		links:  make([]link, p*dim),
		// The store starts empty and grows to the most messages ever in
		// flight at once.
		store:  msgStore{cap: int32(linkCap(dim))},
		procs:  make([]*Proc, p),
		clocks: make([]costmodel.Time, p),
		met:    newMachMetrics(),
	}
	for pid := 0; pid < p; pid++ {
		m.procs[pid] = &Proc{
			m: m, id: pid,
			in:        m.links[pid*dim : (pid+1)*dim],
			linkWords: make([]int64, dim),
		}
		m.procs[pid].rec.Init(defaultFlightDepth)
	}
	if testSched != nil {
		testSched(m)
	}
	return m, nil
}

// testSched, set only by export_test.go, sets each new machine's schedule.
var testSched func(*Machine)

// SetFlightRecorderDepth resizes every processor's flight-recorder
// ring to hold k events (rounded up to a power of two; k <= 0 disables
// recording). It must be called between runs, not during one.
func (m *Machine) SetFlightRecorderDepth(k int) {
	for _, pr := range m.procs {
		pr.rec.Init(k)
	}
}

// MustNew is New for callers with static arguments; it panics on error.
func MustNew(dim int, params costmodel.Params) *Machine {
	m, err := New(dim, params)
	if err != nil {
		panic(err)
	}
	return m
}

// Dim returns the cube dimension d.
func (m *Machine) Dim() int { return m.dim }

// P returns the number of processors, 2^d.
func (m *Machine) P() int { return m.p }

// Params returns the machine's cost parameters.
func (m *Machine) Params() costmodel.Params { return m.params }

// Elapsed returns the simulated time of the most recent Run: the
// maximum virtual clock over all processors.
func (m *Machine) Elapsed() costmodel.Time { return m.elapsed }

// LastStats returns the communication/arithmetic counters of the most
// recent Run.
func (m *Machine) LastStats() Stats { return m.stats }

// Clocks returns every processor's final virtual clock from the most
// recent Run, indexed by processor address. The spread between the
// minimum and maximum is the run's load imbalance.
func (m *Machine) Clocks() []costmodel.Time {
	out := make([]costmodel.Time, len(m.clocks))
	copy(out, m.clocks)
	return out
}

// Run executes body as an SPMD program: one invocation per processor,
// each receiving its own *Proc, interleaved at communication points on
// the calling goroutine. Run returns the simulated elapsed time
// (maximum clock over processors) and the first error; a panic in any
// processor aborts the run and is reported as an error with the
// processor id, and so is a deadlock. Run drains all links afterwards
// so the machine is clean for the next program.
func (m *Machine) Run(body func(*Proc)) (costmodel.Time, error) {
	if m.eng == nil {
		m.start()
	}
	for _, pr := range m.procs {
		pr.resetForRun()
	}
	m.pool.gets, m.pool.hits = 0, 0
	m.meeting = 0
	// The Run holds the arena from its start, not from its first
	// Scratch: a collection that ends while the Run is in flight never
	// takes it, however late the first Scratch comes.
	m.arena = m.weakArena.Value()
	e := m.eng
	e.body = body
	e.run(m.procs)
	// An idle machine keeps nothing of the finished run reachable: not
	// its body, not whatever that captured, and not what the layers
	// above made for the run in their processor-local state. EndRun runs
	// on every path out of the body: return, panic, deadlock or abort.
	e.body = nil
	for _, pr := range m.procs {
		if pr.local != nil {
			pr.local.EndRun()
		}
	}
	m.endScratch()

	// The first error is the lowest-numbered processor's own panic;
	// processors cancelled because a sibling failed first are secondary
	// casualties and speak only if nobody else does.
	var firstErr error
	failedPid := -1
	if e.aborted {
		for pid, pr := range m.procs {
			if pr.panicked == nil {
				continue
			}
			if _, secondary := pr.panicked.(abortedError); !secondary {
				firstErr = fmt.Errorf("hypercube: processor %d: %v", pid, pr.panicked)
				failedPid = pid
				break
			}
			if failedPid < 0 {
				failedPid = pid
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("hypercube: processor %d aborted", failedPid)
		}
	}

	// The one fold over the processors: the makespan, the lowest
	// processor reaching it, and the totals everything below reads.
	m.elapsed, m.stats = 0, Stats{}
	end := 0
	for i, pr := range m.procs {
		m.clocks[i] = pr.clock
		if pr.clock > m.elapsed {
			m.elapsed, end = pr.clock, i
		}
		m.stats.Add(pr.counts)
	}
	if m.stream != nil {
		m.emitRunSummary(m.stream, float64(m.elapsed))
	}

	// The critical path is built on success and on failure alike: a
	// failed run's chain up to the death rides along in the
	// post-mortem.
	var crit *obs.CritPath
	if m.critEnabled {
		crit = m.buildCritPath(end)
	}
	var prof *obs.Profile
	if m.profEnabled && firstErr == nil {
		prof = m.buildProfile()
		prof.Crit = crit
	}

	// On failure, assemble the post-mortem while the links still hold
	// their undelivered messages (buildPostMortem census-drains them);
	// the report rides along on the returned error.
	var pm *flightrec.Report
	if firstErr != nil {
		pm = m.buildPostMortem(firstErr.Error(), failedPid)
		pm.Crit = crit
		firstErr = &RunError{Err: firstErr, Report: pm}
	}
	m.profile, m.postmortem, m.crit = prof, pm, crit

	m.updateMetrics(firstErr != nil, crit)
	m.drain()
	return m.elapsed, firstErr
}

// start creates the processors' coroutines and the run queue, and arms
// the garbage-collection backstop that ends the coroutines.
func (m *Machine) start() {
	e := &engine{cos: make([]coro, m.p), queue: make([]int32, m.p)}
	for pid := range e.cos {
		co := &e.cos[pid]
		co.next, co.stop = iter.Pull(co.loop)
	}
	runtime.SetFinalizer(e, (*engine).shutdown)
	m.eng = e
}

// runBody executes this processor's share of a Run on its coroutine. A
// panic is contained as the processor's failure and aborts the run.
func (p *Proc) runBody() {
	e := p.m.eng
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
			e.abort(p.m.procs)
		}
		e.pending--
	}()
	e.body(p)
	p.checkSpansClosed()
}

// resetForRun clears the processor's per-run state.
func (p *Proc) resetForRun() {
	p.clock = 0
	p.counts = Stats{}
	p.tComp, p.tStart, p.tXfer = 0, 0, 0
	for d := range p.linkWords {
		p.linkWords[d] = 0
	}
	// Chain recording attributes the path to spans, so it activates
	// the span machinery even when no Profile will be built.
	p.crit = p.m.critEnabled
	p.prof = p.m.profEnabled || p.crit
	if p.prof || len(p.ps.nodes) > 0 {
		p.ps.reset()
	}
	p.stream = nil
	if p.prof && p.id == 0 {
		p.stream = p.m.stream
	}
	p.streamClosed = 0
	if p.crit {
		if p.cp == nil {
			p.cp = new(chain)
		}
		p.cp.reset()
	}
	p.nColl = 0
	p.tagMark, p.tagBy = 0, flightrec.NoLabel
	p.nRecvParks = 0
	p.msgHist = [msgHistBins]int64{}
	p.rec.Reset()
	p.waitKind = flightrec.WaitNone
	p.captured, p.hasCaptured = nil, false
	p.panicked = nil
	p.meet = meetNone
	p.trace = p.trace[:0]
}

// Close ends the processors' coroutines. It is optional — an
// unreachable Machine is cleaned up by the garbage collector — and
// idempotent, but Run must not be called after Close.
func (m *Machine) Close() {
	if m.eng != nil {
		runtime.SetFinalizer(m.eng, nil)
		m.eng.shutdown()
		m.eng = nil
	}
}

// drain empties every link (messages left behind by an aborted or
// buggy program). It runs between runs and returns at once when no
// message is in flight.
func (m *Machine) drain() {
	for i := 0; m.store.inUse > 0; i++ {
		for msg, ok := m.store.pop(&m.links[i]); ok; msg, ok = m.store.pop(&m.links[i]) {
			m.putChain(msg.cp)
		}
	}
}

// linksEmpty reports whether no node of the store is in use, so every
// link is empty and none leaked; tests use it to assert that drain left
// the machine clean.
func (m *Machine) linksEmpty() bool { return m.store.inUse == 0 }

// abortedError is the panic value used when a processor is cancelled
// because a sibling failed first.
type abortedError struct{}

func (abortedError) Error() string { return "aborted by sibling failure" }

// errAborted is the abortedError a cancelled processor panics with.
var errAborted any = abortedError{}

// Proc is one simulated processor's handle, valid only inside the body
// passed to Run and only on that processor's coroutine. Procs are
// persistent: the machine reuses them across runs.
type Proc struct {
	m     *Machine
	id    int
	clock costmodel.Time

	// Link transport (see link.go): in[d] is the link this processor
	// receives from along dimension d, yield suspends its coroutine, and
	// parked is the link it waits on while suspended there (nil
	// otherwise). panicked is the value this processor's body panicked
	// with, nil if it returned; inside a Meet, it is set before the
	// panic, to the failure the meeting found for this processor (see
	// RoutePair).
	in       []link
	yield    func(struct{}) bool
	parked   *link
	panicked any

	counts Stats
	trace  []obs.LinkEvent // its sends on processor 0's links (see EnableTrace)

	// Always-on attribution counters: the clock split into compute /
	// start-up / transfer, advanced with the clock by charge and read
	// as one obs.Buckets through split, and the words posted per
	// outgoing link. A few adds per operation; never allocated on the
	// hot path. The split stays three flat fields because charge, which
	// advances two of them, must stay within the inliner's budget.
	tComp, tStart, tXfer costmodel.Time
	linkWords            []int64

	// Span recorder, active only when the machine's EnableProfile is
	// set (see profile.go).
	prof bool
	ps   profState

	// Live event sink (see stream.go), non-nil only on processor 0 of
	// a streamed profiled run; streamClosed counts closed spans for
	// the periodic progress events.
	stream       obs.StreamSink
	streamClosed int64

	// Critical-path chain state, active only under EnableCritPath:
	// crit gates the hooks in charge, post and Recv, cp is the chain
	// (see critpath.go).
	crit bool
	cp   *chain

	// Flight recorder and post-mortem state (see postmortem.go). rec is
	// the bounded event ring; the wait registers say what the processor
	// is blocked on right now (written on the slow paths, read by the
	// machine only after the run has ended); captured holds the
	// offending payload of a tag mismatch, if hasCaptured. All feed the
	// post-mortem report of a failed run.
	rec         flightrec.Ring
	waitKind    flightrec.WaitKind
	waitDim     int
	waitTag     int
	waitSince   costmodel.Time
	captured    []float64
	hasCaptured bool

	// Per-run metric counters, folded into the machine's registry once
	// per Run: collective entries and the message-size histogram bins
	// (bounds in msgWordBounds).
	nColl   int64
	msgHist [msgHistBins]int64

	// nRecvParks counts receives that found the link empty and parked
	// at the virtual-time frontier; the benchmark prices parks per
	// message with it.
	nRecvParks int64

	// local is the layer above's run-scoped state (see RunLocal).
	local RunLocal

	// scratchOff is the words of the arena this processor holds in this
	// Run, past the end of its region included (see Scratch), and
	// scratchPeak the most it held before a RewindScratch gave words
	// back.
	scratchOff, scratchPeak int

	// tagMark is the highest protocol tag NoteCollective has seen in
	// this Run, 0 if none, and tagBy the label of the collective that
	// took it.
	tagMark int
	tagBy   flightrec.Label

	// Rendezvous state (see Meet): meet is where the processor stands in
	// the one in progress, and met what it left at its latest Meet.
	meet meetState
	met  any
}

// RunLocal is per-processor state owned by a layer above the machine,
// kept on the Proc across Runs with SetLocal. The machine never reads
// it: it only calls EndRun on every processor's value after every Run,
// whether the Run returned, panicked or deadlocked, so whatever the
// state handed out during a Run ends with that Run.
type RunLocal interface{ EndRun() }

// Local returns the value last stored with SetLocal, nil if none.
func (p *Proc) Local() RunLocal { return p.local }

// SetLocal stores l as this processor's run-scoped state. Like every
// Proc method it is called only from this processor's body.
func (p *Proc) SetLocal(l RunLocal) { p.local = l }

// Scratch returns n zeroed words from this processor's region of the
// machine's scratch arena, capacity-clipped so that an append copies
// rather than growing into the next request. They are valid until a
// RewindScratch gives them back or the Run that took them ends, whose
// every exit rewinds the region: the next request hands the same words
// out again. So a caller keeps them no longer than that, and never
// Recycles or sends (SendOwned) them, which would let
// the pool or a receiver hand them out a second time. A request past
// the region's end gets a plain allocation; the arena then grows at the
// end of the Run to the most words any processor held at once, so the
// next Run's requests fit. The arena is held strongly only while a Run
// is in flight: between Runs the collector may reclaim it, and the
// first Scratch of a Run that started without it allocates it again.
func (p *Proc) Scratch(n int) []float64 {
	a := p.m.arena
	if a == nil {
		a = p.m.newArena()
		p.m.arena = a
	}
	off := p.scratchOff
	p.scratchOff += n
	if p.scratchOff > a.region {
		return make([]float64, n)
	}
	base := p.id*a.region + off
	s := a.words[base : base+n : base+n]
	clear(s)
	return s
}

// ScratchMark returns the words of scratch this processor holds, for a
// later RewindScratch.
func (p *Proc) ScratchMark() int { return p.scratchOff }

// RewindScratch gives back the words taken since mark, a ScratchMark of
// the same Run that no rewind has passed yet: the next Scratch hands
// them out again.
func (p *Proc) RewindScratch(mark int) {
	p.scratchPeak = max(p.scratchPeak, p.scratchOff)
	if a := p.m.arena; a != nil && p.m.scratchDone != nil && mark < a.region {
		base := p.id * a.region
		p.m.scratchDone(a.words[base+mark : base+min(p.scratchOff, a.region)])
	}
	p.scratchOff = mark
}

// newArena allocates an arena of the machine's region size and holds it
// weakly.
func (m *Machine) newArena() *arena {
	a := &arena{words: make([]float64, m.p*m.region), region: m.region}
	m.weakArena = weak.Make(a)
	return a
}

// endScratch ends a Run's use of the arena: it rewinds every
// processor's region, grows the arena if some processor held more than
// its region at once, and leaves it held only weakly.
func (m *Machine) endScratch() {
	a := m.arena
	if a == nil {
		return
	}
	m.arena = nil
	need := 0
	for _, pr := range m.procs {
		need = max(need, pr.scratchPeak, pr.scratchOff)
		pr.scratchOff, pr.scratchPeak = 0, 0
	}
	if m.scratchDone != nil {
		m.scratchDone(a.words)
	}
	if need > m.region {
		m.region = need
		m.newArena()
	}
}

// GetBuf returns a buffer of length n from the machine's pool,
// with arbitrary contents: the caller must fully overwrite it before
// reading. Pair with Recycle for allocation-free steady state.
func (p *Proc) GetBuf(n int) []float64 { return p.m.pool.get(n) }

// Recycle returns a buffer to the machine's pool. The caller must
// own buf and must not touch it afterwards; recycling a payload that is
// still referenced elsewhere (still in flight, or retained by another
// holder) corrupts later messages. Collectives recycle the payloads
// they consume; payloads returned to application code are the
// application's to keep or recycle.
func (p *Proc) Recycle(buf []float64) { p.m.pool.put(buf) }

// ID returns this processor's cube address in [0, P).
func (p *Proc) ID() int { return p.id }

// Dim returns the cube dimension.
func (p *Proc) Dim() int { return p.m.dim }

// P returns the number of processors.
func (p *Proc) P() int { return p.m.p }

// Params returns the machine cost parameters.
func (p *Proc) Params() costmodel.Params { return p.m.params }

// Clock returns this processor's current virtual time.
func (p *Proc) Clock() costmodel.Time { return p.clock }

// Neighbor returns the cube address of the neighbor along dimension d.
func (p *Proc) Neighbor(d int) int {
	p.checkDim(d)
	return p.id ^ (1 << d)
}

// Compute charges flops local floating-point operations to the clock.
func (p *Proc) Compute(flops int) {
	if flops < 0 {
		panic("hypercube: negative flop count")
	}
	p.counts.Flops += int64(flops)
	c := p.m.params.FlopCost(flops)
	p.tComp += c
	p.charge(c, c, 0, 0, cpKindCompute, -1)
}

// charge is the one edge every clock charge but a receive's passes: it
// advances the clock by cost, the start-up and transfer buckets by su
// and xf, and, under critical-path recording, the chain by comp, su
// and xf as one segment of the given kind on dimension dim (-1 for
// none). The caller keeps its own expression for cost, so the clock's
// float sum is the cost model's, and charges the compute bucket itself
// (which keeps charge within the inliner's budget).
func (p *Proc) charge(cost, comp, su, xf costmodel.Time, kind, dim int) {
	p.clock += cost
	p.tStart += su
	p.tXfer += xf
	if p.crit {
		p.cpCharge(kind, dim, comp, su, xf)
	}
}

// split returns the clock split so far. Idle is not accumulated (it
// reads zero); obs.Buckets.WithIdle derives it from a clock.
func (p *Proc) split() obs.Buckets {
	return obs.Buckets{Compute: p.tComp, Startup: p.tStart, Transfer: p.tXfer}
}

// chargeSend charges the send of n words on dimension d.
func (p *Proc) chargeSend(d, n int) {
	pm := &p.m.params
	p.charge(pm.SendCost(n), 0, pm.CommStartup, costmodel.Time(n)*pm.CommPerWord, cpKindSend, d)
}

// Send transmits words to the neighbor along dimension d with the
// given protocol tag. The payload is copied, so the caller may reuse
// the slice. The sender's clock advances by the send cost and the
// message arrives at that time.
func (p *Proc) Send(d, tag int, words []float64) {
	p.SendOwned(d, tag, p.pooledCopy(words))
}

// SendOwned is Send without the copy: buf itself rides the link and
// belongs to the receiver once it arrives, so the caller must not read,
// write or Recycle it afterwards. Clock, counters and recorders are
// charged exactly as by Send; len(buf) is the message length.
func (p *Proc) SendOwned(d, tag int, buf []float64) {
	p.checkDim(d)
	p.chargeSend(d, len(buf))
	p.post(d, message{words: buf, tag: tag, arrive: p.clock})
}

// pooledCopy returns a copy of words in a buffer from the machine's
// pool; it goes back when the receiver recycles it.
func (p *Proc) pooledCopy(words []float64) []float64 {
	cp := p.m.pool.get(len(words))
	copy(cp, words)
	return cp
}

// post enqueues msg, whose payload the caller gives up, on the
// neighbor's inbound link along dimension d.
func (p *Proc) post(d int, msg message) {
	p.noteSend(d, msg.tag, len(msg.words), msg.arrive)
	if p.crit {
		msg.cp = p.m.getChain(p.cp)
	}
	l := &p.m.links[(p.id^(1<<d))*p.m.dim+d]
	if !p.m.store.push(l, msg) {
		p.stallSend(l, msg, d)
	}
	p.wake(l)
}

// noteSend counts and records a send of n words on dimension d under
// tag, arriving at arrive: the message and word counters, the link's
// load, the message-size histogram, the flight recorder and, on
// processor 0's links in a traced run, the message trace.
func (p *Proc) noteSend(d, tag, n int, arrive costmodel.Time) {
	p.counts.Messages++
	p.counts.Words += int64(n)
	p.linkWords[d] += int64(n)
	dst := p.id ^ (1 << d)
	if (dst == 0 || p.id == 0) && len(p.trace) < p.m.traceLimit && p.m.profEnabled {
		p.trace = append(p.trace, obs.LinkEvent{
			Time: arrive, Src: p.id, Dst: dst, Dim: d, Words: n, Tag: tag,
		})
	}
	p.msgHist[msgBin(n)]++
	p.record(flightrec.KindSend, flightrec.NoLabel, d, tag, n, arrive)
}

// wake puts the processor parked on l, if any, back on the run queue.
func (p *Proc) wake(l *link) {
	if w := l.waiter; w != 0 {
		l.waiter = 0
		p.m.eng.ready(int(w - 1))
	}
}

// stallSend is post's slow path: the link is full (run-ahead
// backpressure), so park until the receiver has consumed a message.
func (p *Proc) stallSend(l *link, msg message, d int) {
	p.park(l, flightrec.WaitSend, d, msg.tag, msg.arrive)
	p.m.store.push(l, msg)
}

// openSpan returns the innermost open profiler span node (-1 outside
// any span) and the depth of the span stack.
func (p *Proc) openSpan() (node, depth int) {
	depth = len(p.ps.stack)
	if depth == 0 {
		return -1, 0
	}
	return p.ps.stack[depth-1].node, depth
}

// record appends one event to this processor's flight recorder,
// stamping the current open profiler span (if any).
func (p *Proc) record(kind flightrec.Kind, label flightrec.Label, dim, tag, words int, vt costmodel.Time) {
	span, depth := p.openSpan()
	p.rec.Record(kind, label, dim, tag, words, span, depth, vt)
}

// NoteCollective records the entry into a named collective protocol
// (or router phase) on this processor's flight recorder and counts it
// toward the machine's collective-invocation metric, and raises the
// processor's tag mark (see TagMark). mask is the subcube dimension
// mask and tag the protocol tag. The machine keeps every distinct name
// it is given for its lifetime (see flightrec.Labels), so name should
// come from a fixed set; only its first use on a machine allocates.
func (p *Proc) NoteCollective(name string, mask, tag int) {
	p.nColl++
	label := p.m.labels.Intern(name)
	if tag > p.tagMark {
		p.tagMark, p.tagBy = tag, label
	}
	p.record(flightrec.KindCollective, label, mask, tag, 0, p.clock)
}

// TagMark returns the highest tag NoteCollective has seen on p in
// this Run, 0 if none. A tag reserved for a later protocol must lie
// above it.
func (p *Proc) TagMark() int { return p.tagMark }

// TagOwner returns the name of the collective that took TagMark, or
// "" if none.
func (p *Proc) TagOwner() string { return p.m.labels.Name(p.tagBy) }

// Recv receives the next message on dimension d, checks that its tag
// matches wantTag (a mismatch is a protocol bug and panics), advances
// the clock to the arrival time, and returns the payload. The returned
// slice is owned by the caller.
func (p *Proc) Recv(d, wantTag int) []float64 {
	return p.recv(d, wantTag)
}

// recv takes the next message on dimension d, charges its receipt —
// the tag check, the critical path, the clock and the flight recorder —
// and returns its payload.
func (p *Proc) recv(d, wantTag int) []float64 {
	p.checkDim(d)
	l := &p.in[d]
	msg, ok := p.m.store.pop(l)
	if !ok {
		msg = p.awaitRecv(l, d, wantTag)
	}
	// The sender may be parked on this link having found it full.
	p.wake(l)
	if msg.tag != wantTag {
		panic(p.mismatch(d, msg.tag, wantTag, msg.words))
	}
	if p.crit {
		p.cpRecv(&msg, d)
	}
	if msg.arrive > p.clock {
		p.clock = msg.arrive
	}
	p.record(flightrec.KindRecv, flightrec.NoLabel, d, wantTag, len(msg.words), p.clock)
	return msg.words
}

// mismatch preserves the payload of a message that arrived on
// dimension d under tag got instead of want for the post-mortem — the
// report shows its length and leading words — and returns the panic
// value that names the mismatch.
func (p *Proc) mismatch(d, got, want int, words []float64) any {
	p.captured, p.hasCaptured = words, true
	p.record(flightrec.KindCapture, flightrec.NoLabel, -1, 0, len(words), p.clock)
	return fmt.Sprintf("tag mismatch on dim %d: got %d, want %d", d, got, want)
}

// awaitRecv is Recv's slow path: the link is empty, so park at the
// virtual-time frontier until the message is posted.
func (p *Proc) awaitRecv(l *link, d, wantTag int) message {
	p.nRecvParks++
	p.park(l, flightrec.WaitRecv, d, wantTag, p.clock)
	msg, _ := p.m.store.pop(l)
	return msg
}

// park suspends the processor until the link l has room for the send,
// or a message for the receive, that kind says it is waiting to do on
// dimension d. The partner that changes l resumes it (see wake). It
// ends in a panic instead when the run has aborted, or when it was
// resumed with l unchanged and the run not aborted — which only the
// engine's deadlock verdict does. The wait registers make the blocked
// state visible to the post-mortem assembler.
func (p *Proc) park(l *link, kind flightrec.WaitKind, d, tag int, since costmodel.Time) {
	p.waitKind, p.waitDim, p.waitTag, p.waitSince = kind, d, tag, since
	e := p.m.eng
	if !e.aborted {
		l.waiter = int32(p.id) + 1
		p.parked = l
		p.yield(struct{}{})
		p.parked = nil
	}
	sending := kind == flightrec.WaitSend
	switch {
	case sending && !p.m.store.full(l), !sending && !l.empty():
		p.waitKind = flightrec.WaitNone
	case e.aborted:
		panic(errAborted)
	case sending:
		panic(deadlock("send stalled", d, tag))
	default:
		panic(deadlock("recv", d, tag))
	}
}

// deadlock returns the panic value of a processor that waits to do
// what on dimension d under tag when nothing else can run.
func deadlock(what string, d, tag int) any {
	return fmt.Sprintf("%s on dim %d (tag %d): deadlock", what, d, tag)
}

// Exchange performs the paired send/receive with the neighbor along
// dimension d that underlies every recursive-halving and -doubling
// collective: both sides send words, both receive the partner's words.
func (p *Proc) Exchange(d, tag int, words []float64) []float64 {
	p.Send(d, tag, words)
	return p.Recv(d, tag)
}

// ExchangeAll performs one exchange phase on several distinct
// dimensions at once: payloads[i] goes to the neighbor along dims[i],
// and the returned slice holds the corresponding received payloads.
// Under the one-port model the sends serialize (costs add); under the
// all-port model (Params.AllPorts) the phase is charged the maximum
// single-dimension cost, which is ablation A1's machine.
func (p *Proc) ExchangeAll(dims []int, tag int, payloads [][]float64) [][]float64 {
	if len(dims) != len(payloads) {
		panic("hypercube: ExchangeAll dims/payloads length mismatch")
	}
	seen := 0
	for _, d := range dims {
		p.checkDim(d)
		bit := 1 << d
		if seen&bit != 0 {
			panic(fmt.Sprintf("hypercube: ExchangeAll duplicate dimension %d", d))
		}
		seen |= bit
	}
	if p.m.params.AllPorts {
		// The ports run concurrently, so every message is charged from
		// the phase start — clock, buckets and chain — and carries that
		// start plus its own send; the phase as a whole costs its
		// largest send.
		clock, tStart, tXfer := p.clock, p.tStart, p.tXfer
		var pre *chain
		if p.crit {
			pre = p.m.getChain(p.cp)
		}
		rewind := func() {
			p.clock, p.tStart, p.tXfer = clock, tStart, tXfer
			if pre != nil {
				p.cp.copyFrom(pre)
			}
		}
		largest := -1
		for i, d := range dims {
			rewind()
			p.Send(d, tag, payloads[i])
			if largest < 0 || len(payloads[i]) > len(payloads[largest]) {
				largest = i
			}
		}
		if largest >= 0 {
			rewind()
			p.chargeSend(dims[largest], len(payloads[largest]))
		}
		p.m.putChain(pre)
	} else {
		for i, d := range dims {
			p.Send(d, tag, payloads[i])
		}
	}
	out := make([][]float64, len(dims))
	for i, d := range dims {
		out[i] = p.Recv(d, tag)
	}
	return out
}

// Barrier synchronizes all processors in the subcube spanned by the
// dimension mask (use FullMask for the whole machine) and equalizes
// their virtual clocks to the maximum participant clock plus the
// synchronization cost. It is implemented as a zero-payload dimension
// exchange, which is also how a real cube synchronizes.
func (p *Proc) Barrier(mask, tag int) {
	for m := uint(mask); m != 0; m &= m - 1 {
		p.Exchange(bits.TrailingZeros(m), tag, nil)
	}
}

// FullMask returns the dimension mask covering the whole cube.
func (p *Proc) FullMask() int { return (1 << p.m.dim) - 1 }

// RoutePhaseCharge charges the clock for one dimension-ordered routing
// phase in which this processor forwards msgs messages totalling n
// words: router start-up, per-word transfer, and per-message handling
// overhead (the cost of not combining messages).
func (p *Proc) RoutePhaseCharge(msgs, n int) {
	pm := &p.m.params
	p.charge(pm.RoutePhaseCost(msgs, n), 0, pm.RouteStartup+costmodel.Time(msgs)*pm.RoutePerMsg,
		costmodel.Time(n)*pm.RoutePerWord, cpKindRoute, -1)
}

func (p *Proc) checkDim(d int) {
	if d < 0 || d >= p.m.dim {
		panic(fmt.Sprintf("hypercube: dimension %d out of range [0,%d)", d, p.m.dim))
	}
}
