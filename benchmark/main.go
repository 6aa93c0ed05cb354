// Command benchmark is the repository's benchmark: four fixed-work
// workloads over the simulator, timed on the host and held to the
// simulator's own deterministic output as the oracle. README.md in this
// directory describes the workloads, the metrics and how to run them.
//
// Usage (from this directory; bench.sh wraps the same for the driver):
//
//	go run . -workload prims -seed 1            end-to-end metrics, tracing off
//	go run . -workload prims -seed 1 -trace 1   per-layer metrics from a traced run
//	go run . -workload all -out result.json     all four, results appended to a file
//	go run . -compare A.json B.json             two result files, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	traceOut    string
	out         string
	golden      string
	writeGolden string
	smoke       bool
	compare     bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit, so that tests can drive the
// whole command.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: prims, route, apps, serve or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "size the fixed op count for a run of about this many seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the traced loop's spans to this file")
	fs.StringVar(&o.out, "out", "", "append the results to this JSON file (for -compare)")
	fs.StringVar(&o.golden, "golden", "", "read the oracle from this file instead of the compiled-in golden.json")
	fs.StringVar(&o.writeGolden, "write-golden", "", "record seeds 1 and 2 of every workload into this golden file and exit")
	fs.BoolVar(&o.smoke, "smoke", false, "two ops per client, one set-up, no warm-up: checks the oracle, measures nothing useful")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if o.writeGolden != "" {
		if err := writeGolden(o.writeGolden); err != nil {
			return fail(err)
		}
		return 0
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	defs := workloads
	if o.workload != "all" {
		def := workloadByName(o.workload)
		if def == nil {
			return fail(fmt.Errorf("no workload %q (have prims, route, apps, serve, all)", o.workload))
		}
		defs = []*workloadDef{def}
	}
	gold, err := loadGolden(o.golden)
	if err != nil {
		return fail(err)
	}

	status := 0
	for _, def := range defs {
		var res *runResult
		if o.trace == 1 {
			res, err = runTraced(def, o, gold)
		} else {
			res, err = runUntraced(def, o, gold)
		}
		if err != nil {
			return fail(err)
		}
		if err := res.print(stdout); err != nil {
			return fail(err)
		}
		if o.out != "" {
			if err := appendResult(o.out, res); err != nil {
				return fail(err)
			}
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed; first: %s\n",
				def.name, res.Failed, res.Attempted, res.FirstError)
			status = 1
		}
	}
	return status
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics holds the end-to-end metrics (trace 0) or the per-layer
	// metrics (trace 1).
	Metrics map[string]metricValue `json:"metrics"`
	// Exact holds counts that must agree exactly between two runs of
	// the same seed: simulated time, messages and words per op.
	Exact map[string]float64 `json:"exact"`
	// Info is printed but never gated on.
	Info       map[string]float64 `json:"info"`
	FirstError string             `json:"first_error,omitempty"`
}

func newResult(def *workloadDef, o options) *runResult {
	return &runResult{
		Workload: def.name, Seed: o.seed, Trace: o.trace,
		Metrics: map[string]metricValue{}, Exact: map[string]float64{},
		Info: map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0)), "clients": float64(def.clients)},
	}
}

func (res *runResult) set(name string, v float64) {
	res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// count folds one loop's attempts and failures into the result.
func (res *runResult) count(r loopResult) {
	res.Attempted += r.ops
	res.Failed += r.failed
	if res.FirstError == "" && r.firstErr != nil {
		res.FirstError = r.firstErr.Error()
	}
}

// exact records the oracle's per-op simulated counts.
func (res *runResult) exact(r loopResult) {
	res.Exact["sim_us_per_op"] = r.simUs
	res.Exact["sim_msgs_per_op"] = float64(r.simMsgs)
	res.Exact["sim_words_per_op"] = float64(r.simWords)
}

// hostNsPerSimMsg is the host time one simulated message costs.
func hostNsPerSimMsg(r loopResult) float64 {
	if rate := r.opsPerSec(); rate > 0 && r.simMsgs > 0 {
		return 1e9 / (rate * float64(r.simMsgs))
	}
	return 0
}

// loopSize resolves the op count, warm-up and set-up repeats of a run.
func loopSize(def *workloadDef, o options) (ops, warmup, repeats int) {
	ops, warmup, repeats = def.ops(o.seconds), def.warmup, setupRepeats
	if o.smoke {
		ops, warmup, repeats = 2*def.clients, 0, 1
	}
	return ops, warmup, repeats
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(def *workloadDef, o options, gold golden) (*runResult, error) {
	ops, warmup, repeats := loopSize(def, o)
	setupS, r, err := measureUntraced(def, o.seed, gold, ops, warmup, repeats)
	if err != nil {
		return nil, err
	}
	res := newResult(def, o)
	res.count(r)
	res.exact(r)
	// Times and rates are stated at the reference host speed; see calib.go.
	slow := r.calib.slowdown()
	res.set("setup_s", setupS/slow)
	res.set("ops_per_s", r.opsPerSec()*slow)
	res.set("op_p50_ms", percentile(r.lat, 0.50)/slow)
	res.set("allocs_per_op", r.perOp(r.mallocs))
	res.set("alloc_kb_per_op", r.perOp(r.bytes)/1024)
	res.set("live_heap_mb", float64(r.heap1)/(1<<20))
	res.Info["op_p90_ms"] = percentile(r.lat, 0.90) / slow
	res.Info["op_p99_ms"] = percentile(r.lat, 0.99) / slow
	res.Info["host_slowdown"] = slow
	res.Info["calibrations"] = float64(len(r.calib.handoff))
	res.Info["calib_handoff_ms"] = median(r.calib.handoff)
	res.Info["calib_loops_ms"] = median(r.calib.loops)
	res.Info["raw_setup_s"] = setupS
	res.Info["raw_ops_per_s"] = r.opsPerSec()
	res.Info["raw_op_p50_ms"] = percentile(r.lat, 0.50)
	res.Info["samples"] = float64(len(r.lat))
	res.Info["setup_repeats"] = float64(repeats)
	res.Info["wall_s"] = r.wall.Seconds()
	res.Info["peak_rss_mb"] = peakRSSMB()
	res.Info["retained_kb_per_op"] = r.retainedKBPerOp()
	res.Info["host_ns_per_sim_msg"] = hostNsPerSimMsg(r) / slow
	if r.ops > 0 {
		res.Info["failed_share"] = float64(r.failed) / float64(r.ops)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// runTraced produces every per-layer metric in one run about one
// workload. The probes come first. Then each workload runs a traced
// loop for its cycle spans: half of its fixed op count for the workload
// the run is about, tracing every other op so that the traced and the
// untraced ops see the same host and their latencies give the tracing
// overhead; and a short, fully traced loop for the other three, whose
// spans fill in the metrics this workload's cycle does not touch.
func runTraced(def *workloadDef, o options, gold golden) (*runResult, error) {
	res := newResult(def, o)
	pr, err := newProber(o.smoke)
	if err != nil {
		return nil, err
	}
	defer pr.m.Close()
	for _, probe := range []func() error{pr.serveLayers, pr.hypercube, pr.recorders, pr.collectives, pr.core, pr.router} {
		if err := probe(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	for _, d := range workloads {
		if err := tracedLoop(d, d == def, o, gold, pr, res); err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	for _, m := range perLayer {
		v, ok := pr.out[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no value for %s", m.name)
		}
		res.set(m.name, v)
	}
	res.Info["peak_rss_mb"] = peakRSSMB()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// tracedLoop sets workload d up, runs its traced loop and turns the
// spans and the layer counters into per-layer metrics in pr.out. subject
// says whether d is the workload the run is about.
func tracedLoop(d *workloadDef, subject bool, o options, gold golden, pr *prober, res *runResult) error {
	ops, warmup, _ := loopSize(d, o)
	mode := traceAll
	if subject {
		mode = traceAlternate
	}
	if !o.smoke {
		if ops /= 2; !subject {
			ops = d.short
		}
		ops -= ops % d.clients
	}
	p, err := prepare(d, o.seed, gold, warmup)
	if err != nil {
		return err
	}
	defer p.inst.close()
	out := pr.out

	cnt, hasCounters := p.inst.(counted)
	var before map[string]float64
	if hasCounters {
		if before, err = cnt.counters(); err != nil {
			return err
		}
	}
	r := p.loop(ops, mode, calibSegments)
	res.count(r)
	sum := summarize(r.spans)
	for _, sm := range d.spans {
		out[sm.metric] = sum.medianMs(sm.span) * sm.scale
	}
	if hasCounters {
		delta, err := cnt.counters()
		if err != nil {
			return err
		}
		for k := range delta {
			delta[k] -= before[k]
		}
		if err := cnt.layerMetrics(delta, sum, out); err != nil {
			res.Failed++
			if res.FirstError == "" {
				res.FirstError = err.Error()
			}
		}
	}
	if !subject {
		return nil
	}
	res.exact(r)
	out["trace_overhead_ratio"] = ratio(median(r.latTrace), median(r.latPlain))
	out["cycle_span_coverage"] = sum.cycleCover
	out["retained_kb_per_op"] = r.retainedKBPerOp()
	out["sim_us_per_op"] = r.simUs
	out["sim_msgs_per_op"] = float64(r.simMsgs)
	out["sim_words_per_op"] = float64(r.simWords)
	out["host_ns_per_sim_msg"] = hostNsPerSimMsg(r)
	res.Info["untraced_op_p50_ms"] = median(r.latPlain)
	res.Info["traced_op_p50_ms"] = median(r.latTrace)
	res.Info["traced_ops"] = float64(len(r.latTrace))
	res.Info["spans"] = float64(len(r.spans))
	if o.traceOut != "" {
		return writeTrace(o.traceOut, d.name, o.seed, r.spans)
	}
	return nil
}

// print writes the result for people, then the one-line JSON object the
// benchmark driver reads as the last line of standard output. A metric
// that is not a finite number has no JSON form and fails the run.
func (res *runResult) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  ops attempted %d  failed %d  GOMAXPROCS %.0f  clients %.0f\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.Info["gomaxprocs"], res.Info["clients"])
	table := endToEnd
	if res.Trace == 1 {
		table = perLayer
	}
	for _, m := range table {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s%s\n", m.name, res.Metrics[m.name].Value, m.unit, res.sampleNote(m.name))
	}
	fmt.Fprintln(w, "  exact (simulated, must not move):")
	for _, k := range sortedKeys(res.Exact) {
		fmt.Fprintf(w, "    %-32s %16.10g\n", k, res.Exact[k])
	}
	fmt.Fprintln(w, "  informational (not gated):")
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "    %-32s %16.6g\n", k, res.Info[k])
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return fmt.Errorf("%s: result line: %w", res.Workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// sampleNote says how many samples stand behind an end-to-end metric.
func (res *runResult) sampleNote(name string) string {
	switch name {
	case "setup_s":
		return fmt.Sprintf(" (median of %.0f set-ups, at reference host speed)", res.Info["setup_repeats"])
	case "ops_per_s":
		return " (median of 5 equal consecutive segments, at reference host speed)"
	case "op_p50_ms":
		return fmt.Sprintf(" (%.0f samples, at reference host speed)", res.Info["samples"])
	}
	return ""
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultFile is what -out writes and -compare reads: every run appended
// in order, several runs of one workload allowed.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResult(path string, res *runResult) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, res)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeGolden records one cycle of every workload on seeds 1 and 2.
func writeGolden(path string) error {
	gold := golden{}
	for _, def := range workloads {
		for _, seed := range []int64{1, 2} {
			p, err := prepare(def, seed, golden{}, 0)
			if err != nil {
				return err
			}
			gold.set(def.name, seed, p.expect)
			p.inst.close()
		}
	}
	return gold.write(path)
}
