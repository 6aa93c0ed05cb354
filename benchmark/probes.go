package main

import (
	"io"
	"runtime"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/collective"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/obs"
	"vmprim/internal/router"
)

// Probes reach the layers no cycle calls directly: fixed-count SPMD
// bodies on a warm d=8 CM2 machine that call one public function of
// the layer over and over. Every probe returns host time; none of them
// is held to an oracle beyond "the run did not fail".

const probeDim = 8

// A prober runs the probes on its machine and collects their metrics.
type prober struct {
	m      *hypercube.Machine
	out    map[string]float64
	repeat int // timed runs per probe; the median is reported
	div    int // divides every iteration count: 1, or more for a smoke run
}

func newProber(smoke bool) (*prober, error) {
	m, err := hypercube.New(probeDim, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	pr := &prober{m: m, out: map[string]float64{}, repeat: 5, div: 1}
	if smoke {
		pr.repeat, pr.div = 1, 10
	}
	return pr, nil
}

// n scales an iteration count down for smoke runs, never below 1.
func (pr *prober) n(count int) int {
	if count /= pr.div; count < 1 {
		return 1
	}
	return count
}

// medianOf times f pr.repeat times and returns the median.
func (pr *prober) medianOf(f func() error) (time.Duration, error) {
	times := make([]float64, pr.repeat)
	for i := range times {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(median(times)), nil
}

// run returns the median wall time of one Run of body on m, after an
// untimed Run to warm pools and links.
func (pr *prober) run(m *hypercube.Machine, body func(*hypercube.Proc)) (time.Duration, error) {
	once := func() error { _, err := m.Run(body); return err }
	if err := once(); err != nil {
		return 0, err
	}
	return pr.medianOf(once)
}

// exchangeBody sends words-word messages to every neighbour in turn,
// rounds times over: rounds * dim messages per processor.
func exchangeBody(words, rounds int) func(*hypercube.Proc) {
	return func(p *hypercube.Proc) {
		out := p.GetBuf(words)
		for i := range out {
			out[i] = float64(i)
		}
		for r := 0; r < rounds; r++ {
			for d := 0; d < p.Dim(); d++ {
				p.Recycle(p.Exchange(d, 7, out))
			}
		}
		p.Recycle(out)
	}
}

func empty(*hypercube.Proc) {}

// hypercube times the machine's own surface: Run dispatch, link
// transport per message and per word, the buffer pool, New/Close.
func (pr *prober) hypercube() error {
	m, procs, dim := pr.m, pr.m.P(), pr.m.Dim()

	emptyRuns := pr.n(500)
	batch := func() error {
		for i := 0; i < emptyRuns; i++ {
			if _, err := m.Run(empty); err != nil {
				return err
			}
		}
		return nil
	}
	if err := batch(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := batch(); err != nil {
		return err
	}
	runEmpty := time.Since(t0) / time.Duration(emptyRuns)
	pr.out["hypercube.run_empty_us"] = us(runEmpty)
	// perMsg is a body's wall time per message once the Run dispatch
	// itself is taken off.
	perMsg := func(body func(*hypercube.Proc), msgs int) (float64, error) {
		wall, err := pr.run(m, body)
		return float64(wall-runEmpty) / float64(msgs), err
	}

	const bigWords = 4096
	smallRounds, bigRounds := pr.n(50), pr.n(4)
	small, err := perMsg(exchangeBody(1, smallRounds), procs*dim*smallRounds)
	if err != nil {
		return err
	}
	big, err := perMsg(exchangeBody(bigWords, bigRounds), procs*dim*bigRounds)
	if err != nil {
		return err
	}
	pr.out["hypercube.exchange_ns_per_msg"] = small
	pr.out["hypercube.exchange_ns_per_word"] = (big - small) / (bigWords - 1)

	oneWay := pr.n(200)
	sendRecv, err := perMsg(func(p *hypercube.Proc) {
		//lint:allow collorder one-way traffic is the probe: even processors only send, their dim-0 neighbours only receive, so every Send has its Recv
		if p.ID()&1 == 0 {
			word := p.GetBuf(1)
			word[0] = 1
			for i := 0; i < oneWay; i++ {
				p.Send(0, 8, word)
			}
			p.Recycle(word)
			return
		}
		for i := 0; i < oneWay; i++ {
			p.Recycle(p.Recv(0, 8))
		}
	}, procs/2*oneWay)
	if err != nil {
		return err
	}
	pr.out["hypercube.sendrecv_ns_per_msg"] = sendRecv

	gets := pr.n(2000)
	getBuf, err := perMsg(func(p *hypercube.Proc) {
		for i := 0; i < gets; i++ {
			p.Recycle(p.GetBuf(64))
		}
	}, procs*gets)
	if err != nil {
		return err
	}
	pr.out["hypercube.getbuf_ns"] = getBuf

	newClose, err := pr.medianOf(func() error {
		fresh, err := hypercube.New(dim, m.Params())
		if err != nil {
			return err
		}
		_, err = fresh.Run(empty) // the worker goroutines start on the first Run
		fresh.Close()
		return err
	})
	pr.out["hypercube.new_close_ms"] = ms(newClose)
	return err
}

// recorders prices each recorder alone on the message path: the 1-word
// Exchange probe with one recorder armed, as a ratio to the same probe
// with the machine as New leaves it (flight recorder at its default
// depth, everything else off).
func (pr *prober) recorders() error {
	m := pr.m
	body := exchangeBody(1, pr.n(20))
	base, err := pr.run(m, body)
	if err != nil {
		return err
	}
	drop := func(obs.StreamEvent) {}
	const traceLimit = 4096 // what bench.RunSpec.RunOn arms
	all := func(on bool) {
		m.EnableProfile(on)
		m.EnableCritPath(on)
		m.EnableTrace(0)
		m.EnableStream(nil)
		if on {
			m.EnableTrace(traceLimit)
			m.EnableStream(drop)
		}
	}
	for _, r := range []struct {
		name string
		arm  func()
	}{
		{"rec_profile_ratio", func() { m.EnableProfile(true) }},
		{"rec_trace_ratio", func() { m.EnableTrace(traceLimit) }},
		{"rec_critpath_ratio", func() { m.EnableCritPath(true) }},
		{"rec_stream_ratio", func() { m.EnableStream(drop) }},
		{"rec_all_ratio", func() { all(true) }},
	} {
		r.arm()
		wall, err := pr.run(m, body)
		all(false)
		if err != nil {
			return err
		}
		pr.out["hypercube."+r.name] = ratio(float64(wall), float64(base))
	}
	// The flight recorder's depth cannot be set back to the default from
	// outside the package, so its probe gets a machine of its own.
	bare, err := hypercube.New(m.Dim(), m.Params())
	if err != nil {
		return err
	}
	defer bare.Close()
	bare.SetFlightRecorderDepth(0)
	wall, err := pr.run(bare, body)
	pr.out["hypercube.rec_flight0_ratio"] = ratio(float64(wall), float64(base))
	return err
}

// collectives times each of the 13 collectives over the full cube, µs
// per call. A collective that moves one vector whole gets 32 words
// (BcastLarge 4,096); one that partitions or concatenates a vector over
// the members gets one word per member, a 256-word vector, which keeps
// the probe's buffers small.
func (pr *prober) collectives() error {
	const whole = 32
	procs := pr.m.P()
	full := procs - 1
	probes := []struct {
		name  string
		calls int
		words int // input length
		// call runs the collective once and recycles its result, if it
		// is not the input itself.
		call func(p *hypercube.Proc, tag int, in []float64)
	}{
		{"bcast", 20, whole, func(p *hypercube.Proc, tag int, in []float64) {
			if res := collective.Bcast(p, full, tag, 0, in); p.ID() != 0 {
				p.Recycle(res)
			}
		}},
		{"bcastlarge", 5, 4096, func(p *hypercube.Proc, tag int, in []float64) {
			p.Recycle(collective.BcastLarge(p, full, tag, 0, in))
		}},
		{"reduce", 20, whole, func(p *hypercube.Proc, tag int, in []float64) {
			if res := collective.Reduce(p, full, tag, 0, in, collective.Sum); res != nil {
				p.Recycle(res)
			}
		}},
		{"reducescatter", 10, procs, func(p *hypercube.Proc, tag int, in []float64) {
			res, _ := collective.ReduceScatter(p, full, tag, in, collective.Sum)
			p.Recycle(res)
		}},
		{"allgather", 10, 1, func(p *hypercube.Proc, tag int, in []float64) {
			p.Recycle(collective.AllGather(p, full, tag, in))
		}},
		{"allreduce", 10, whole, func(p *hypercube.Proc, tag int, in []float64) {
			p.Recycle(collective.AllReduce(p, full, tag, in, collective.Sum))
		}},
		{"gather", 10, 1, func(p *hypercube.Proc, tag int, in []float64) {
			collective.Gather(p, full, tag, 0, in)
		}},
		{"scatter", 10, procs, func(p *hypercube.Proc, tag int, in []float64) {
			p.Recycle(collective.Scatter(p, full, tag, 0, in))
		}},
		{"alltoall", 5, procs, func(p *hypercube.Proc, tag int, in []float64) {
			rows := make([][]float64, procs)
			for j := range rows {
				rows[j] = in[j : j+1]
			}
			collective.AllToAll(p, full, tag, rows)
		}},
		{"scaninclusive", 10, whole, func(p *hypercube.Proc, tag int, in []float64) {
			p.Recycle(collective.ScanInclusive(p, full, tag, in, collective.Sum))
		}},
		{"scanexclusive", 10, whole, func(p *hypercube.Proc, tag int, in []float64) {
			zero := p.GetBuf(len(in))
			for i := range zero {
				zero[i] = 0
			}
			p.Recycle(collective.ScanExclusive(p, full, tag, in, zero, collective.Sum))
			p.Recycle(zero)
		}},
		{"bcastallport", 3, whole, func(p *hypercube.Proc, tag int, in []float64) {
			p.Recycle(collective.BcastAllPort(p, full, tag, 0, in))
		}},
		{"reduceallport", 3, whole, func(p *hypercube.Proc, tag int, in []float64) {
			if res := collective.ReduceAllPort(p, full, tag, 0, in, collective.Sum); res != nil {
				p.Recycle(res)
			}
		}},
	}
	for _, c := range probes {
		calls := pr.n(c.calls)
		wall, err := pr.run(pr.m, func(p *hypercube.Proc) {
			for i := 0; i < calls; i++ {
				in := p.GetBuf(c.words)
				for j := range in {
					in[j] = float64(p.ID() + j)
				}
				c.call(p, 2*i+1, in) // BcastLarge uses tag and tag+1
				p.Recycle(in)
			}
		})
		if err != nil {
			return err
		}
		pr.out["collective."+c.name+"_us"] = us(wall) / float64(calls)
	}
	return nil
}

// core times the host I/O of internal/core and counts what one
// Transpose allocates.
func (pr *prober) core() error {
	dim, n := pr.m.Dim(), primsN
	g := embed.SplitFor(dim, n, n)
	dense := bench.RandMat(31, n, n)
	fromDense, err := pr.medianOf(func() error {
		_, err := core.FromDense(g, dense, embed.Block, embed.Block)
		return err
	})
	if err != nil {
		return err
	}
	pr.out["core.fromdense_us"] = us(fromDense)

	v, err := core.VectorFromSlice(g, bench.RandVec(32, n), core.RowAligned, embed.Block, 0, true)
	if err != nil {
		return err
	}
	slices := pr.n(200)
	t0 := time.Now()
	for i := 0; i < slices; i++ {
		v.ToSlice()
	}
	pr.out["core.toslice_us"] = us(time.Since(t0)) / float64(slices)

	gt := embed.SplitFor(dim, transposeN, transposeN)
	at, err := core.FromDense(gt, bench.RandMat(33, transposeN, transposeN), embed.Block, embed.Block)
	if err != nil {
		return err
	}
	allocs, err := pr.allocsPerRun(pr.m, func(p *hypercube.Proc) { core.NewEnv(p, gt).Transpose(at) })
	pr.out["core.transpose_allocs"] = allocs
	return err
}

// allocsPerRun counts the heap objects one Run of body allocates, as
// the mean over pr.repeat runs after a warm-up run.
func (pr *prober) allocsPerRun(m *hypercube.Machine, body func(*hypercube.Proc)) (float64, error) {
	if _, err := m.Run(body); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pr.repeat; i++ {
		if _, err := m.Run(body); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(pr.repeat), nil
}

// router times router.Request and counts what routing one message
// allocates, on the route cycle's kind of traffic: one 16-word message
// per processor along a permutation.
func (pr *prober) router() error {
	procs := pr.m.P()
	const wants = 4
	wall, err := pr.run(pr.m, func(p *hypercube.Proc) {
		want := make([]router.Msg, wants)
		for i := range want {
			want[i] = router.Msg{Dst: (p.ID() + 1 + 37*i) % procs, Key: i}
		}
		router.Request(p, 3, want, func(key int) []float64 { return []float64{float64(key)} })
	})
	if err != nil {
		return err
	}
	pr.out["router.request_ns_per_msg"] = float64(wall) / float64(procs*wants)

	words := make([]float64, routeWords)
	allocs, err := pr.allocsPerRun(pr.m, func(p *hypercube.Proc) {
		// 37 is odd, so this is a permutation of the 2^d addresses.
		router.Route(p, 4, []router.Msg{{Dst: (37*p.ID() + 11) % procs, Key: p.ID(), Words: words}})
	})
	pr.out["router.allocs_per_msg"] = allocs / float64(procs)
	return err
}

// serveLayers prices what the server does for one session outside HTTP:
// the six specs simulated with the serving recorder set armed and with
// none, and each artifact rendered. All values are ms per session.
func (pr *prober) serveLayers() error {
	armed := bench.ProfileOpts{Profile: true, CritPath: true}
	for _, s := range sessionSpecs {
		spec, err := s.Normalized()
		if err != nil {
			return err
		}
		m, err := hypercube.New(spec.D, spec.CostParams())
		if err != nil {
			return err
		}
		var res *bench.ProfileResult
		runOn := func(opts bench.ProfileOpts) func() error {
			return func() (err error) { res, err = spec.RunOn(m, opts); return err }
		}
		err = runOn(armed)() // warm-up
		for _, step := range []struct {
			name string
			f    func() error
		}{
			{"bench.runon_bare_ms", runOn(bench.ProfileOpts{})},
			{"bench.runon_armed_ms", runOn(armed)},
			{"obs.profile_json_ms", func() error { return res.Profile.WriteJSON(io.Discard) }},
			{"obs.chrometrace_ms", func() error { return res.Profile.ChromeTrace(io.Discard, 0) }},
			{"obs.critpath_json_ms", func() error { return res.CritPath.WriteJSON(io.Discard) }},
			{"metrics.prom_ms", func() error { return res.Metrics.WritePrometheus(io.Discard) }},
		} {
			if err != nil {
				break
			}
			var d time.Duration
			d, err = pr.medianOf(step.f)
			pr.out[step.name] += ms(d)
		}
		m.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
