// Command vmprim regenerates the tables and figures of the
// reconstructed SPAA 1989 evaluation (see DESIGN.md and
// EXPERIMENTS.md) and profiles representative runs.
//
// Usage:
//
//	vmprim -list             list experiment ids
//	vmprim -exp E3           run one experiment and print its table
//	vmprim -exp all          run every experiment (several minutes)
//	vmprim -exp E3 -json     print the table as JSON
//	vmprim -profile E4       profile a representative run: span tree on
//	                         stdout, Chrome trace JSON to
//	                         vmprim-trace-e4.json (load in Perfetto)
//	vmprim -profile E1 -json machine-readable profile on stdout
//	vmprim -profile E1 -metrics-out m.json
//	                         also snapshot the run's metrics registry
//	                         (a .prom suffix selects Prometheus text)
//	vmprim -critpath E4      trace the run's critical path: makespan
//	                         attribution and the cost-model conformance
//	                         report on stdout ("why is this run slow?")
//	vmprim -critpath E4 -model ipsc -critpath-out cp.json
//	                         same on the iPSC cost model, with the
//	                         machine-readable document written to a file
//	vmprim -demo-deadlock    run a deliberately deadlocked program and
//	                         print its post-mortem report (with the
//	                         critical path up to the deadlock)
//
// Every mode accepts -postmortem-out to write the structured
// post-mortem JSON of a failed run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
	"vmprim/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "", "experiment id to run (E1..E5, F1..F3, A1..A4, X1..X3, or 'all')")
	profile := flag.String("profile", "", "profile a representative run of an experiment (E1..E5)")
	critpath := flag.String("critpath", "", "trace the critical path of a representative run (E1..E5)")
	critpathOut := flag.String("critpath-out", "", "write the critical-path JSON of a -critpath or -profile run to this path")
	model := flag.String("model", "cm2", "cost model for -critpath (cm2 or ipsc)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	traceOut := flag.String("trace-out", "", "Chrome trace output path for -profile (default vmprim-trace-<id>.json, '-' to skip)")
	pmOut := flag.String("postmortem-out", "", "write the post-mortem JSON of a failed run to this path")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot of a -profile or -demo-deadlock run (.prom suffix selects Prometheus text, otherwise JSON)")
	demoDeadlock := flag.Bool("demo-deadlock", false, "run a deliberately deadlocked exchange and print its post-mortem")
	flag.Parse()

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-3s  %s\n", e.ID, e.Title)
		}
	case *demoDeadlock:
		if err := runDemoDeadlock(*jsonOut, *pmOut, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "demo-deadlock: %v\n", err)
			os.Exit(1)
		}
	case *critpath != "":
		if err := runCritPath(*critpath, *jsonOut, *critpathOut, *model); err != nil {
			writePostMortem(err, *pmOut)
			fmt.Fprintf(os.Stderr, "%s: %v\n", *critpath, err)
			os.Exit(1)
		}
	case *profile != "":
		if err := runProfile(*profile, *jsonOut, *traceOut, *metricsOut, *critpathOut); err != nil {
			writePostMortem(err, *pmOut)
			fmt.Fprintf(os.Stderr, "%s: %v\n", *profile, err)
			os.Exit(1)
		}
	case *exp == "":
		flag.Usage()
		os.Exit(2)
	case strings.EqualFold(*exp, "all"):
		for _, e := range bench.All() {
			if err := runOne(e, *jsonOut); err != nil {
				writePostMortem(err, *pmOut)
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
	default:
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		if err := runOne(e, *jsonOut); err != nil {
			writePostMortem(err, *pmOut)
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}

func runOne(e bench.Experiment, jsonOut bool) error {
	start := time.Now()
	t, err := e.Run()
	if err != nil {
		return err
	}
	if jsonOut {
		return writeTableJSON(os.Stdout, t)
	}
	t.Fprint(os.Stdout)
	fmt.Printf("  [host time %v]\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeTableJSON emits one experiment table as a JSON object, for
// scripted consumption of the evaluation tables.
func writeTableJSON(w io.Writer, t *bench.Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   string     `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Columns, t.Rows, t.Notes})
}

// writePostMortem extracts the structured post-mortem attached to a
// failed run's error, if any, and writes it as JSON to path.
func writePostMortem(err error, path string) {
	if path == "" || err == nil {
		return
	}
	var re *hypercube.RunError
	if !errors.As(err, &re) || re.Report == nil {
		fmt.Fprintf(os.Stderr, "no post-mortem attached to the error; %s not written\n", path)
		return
	}
	f, ferr := os.Create(path)
	if ferr != nil {
		fmt.Fprintln(os.Stderr, ferr)
		return
	}
	if werr := re.Report.WriteJSON(f); werr != nil {
		fmt.Fprintln(os.Stderr, werr)
	}
	if cerr := f.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, cerr)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote post-mortem to %s\n", path)
}

// writeMetrics writes a machine's metrics snapshot to path; a .prom
// suffix selects the Prometheus text exposition, anything else JSON.
func writeMetrics(m *hypercube.Machine, path string) error {
	if path == "" {
		return nil
	}
	snap := m.Metrics().Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = snap.WritePrometheus(f)
	} else {
		err = snap.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", path)
	}
	return err
}

// runDemoDeadlock executes a deliberately wrong SPMD program — the
// procs pair off for an Exchange but disagree about the dimension, so
// every processor blocks in Recv on a message that never comes — and
// prints the post-mortem report of the detected deadlock. Exit status is
// nonzero unless the report shows every processor blocked, so
// scripts/check.sh can validate the post-mortem path end to end.
func runDemoDeadlock(jsonOut bool, pmOut, metricsOut string) error {
	m, err := hypercube.New(2, costmodel.CM2())
	if err != nil {
		return err
	}
	defer m.Close()
	// The post-mortem then carries the critical path up to the
	// deadlock, showing which causal chain the machine was stuck behind.
	m.EnableCritPath(true)
	_, err = m.Run(func(p *hypercube.Proc) {
		// Procs 0 and 3 exchange on dim 0; procs 1 and 2 on dim 1.
		// Nobody's partner agrees, so all four block after sending.
		d := (p.ID() & 1) ^ ((p.ID() >> 1) & 1)
		//lint:allow collorder the mismatched pairing is the point: -demo-deadlock exists to show the deadlock post-mortem on exactly this bug
		//lint:allow recyclecheck the exchange never completes, so there is no buffer to recycle; the run is torn down by the deadlock verdict
		p.Exchange(d, 7, []float64{float64(p.ID()), 1, 2})
	})
	if err == nil {
		return fmt.Errorf("demo program did not deadlock")
	}
	var re *hypercube.RunError
	if !errors.As(err, &re) || re.Report == nil {
		return fmt.Errorf("no post-mortem attached: %w", err)
	}
	rep := re.Report
	if jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		rep.WriteText(os.Stdout)
	}
	writePostMortem(err, pmOut)
	if err := writeMetrics(m, metricsOut); err != nil {
		return err
	}
	if rep.Blocked != rep.P {
		return fmt.Errorf("report shows %d/%d procs blocked, want all", rep.Blocked, rep.P)
	}
	return nil
}

// runCritPath executes the experiment's representative workload with
// the critical-path tracer on and prints the makespan attribution and
// cost-model conformance report.
func runCritPath(id string, jsonOut bool, outPath, model string) error {
	var params costmodel.Params
	switch strings.ToLower(model) {
	case "", "cm2":
		params = costmodel.CM2()
	case "ipsc":
		params = costmodel.IPSC()
	default:
		return fmt.Errorf("unknown cost model %q (have cm2, ipsc)", model)
	}
	res, err := bench.ProfileRunOpts(id, bench.ProfileOpts{CritPath: true, Params: &params})
	if err != nil {
		return err
	}
	cp := res.CritPath
	if cp == nil {
		return fmt.Errorf("no critical path recorded")
	}
	if err := cp.Check(); err != nil {
		return fmt.Errorf("critical-path invariants violated: %w", err)
	}
	if jsonOut {
		if err := cp.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		fmt.Printf("%s — %s  [model %s]\n", res.ID, res.Desc, strings.ToLower(model))
		for i, tt := range res.Times {
			fmt.Printf("  run %d: %.1f simulated us\n", i+1, float64(tt))
		}
		fmt.Println()
		cp.WriteText(os.Stdout)
	}
	return writeCritPath(cp, outPath)
}

// writeCritPath writes the critical-path JSON document to path ("" is
// a no-op).
func writeCritPath(cp *obs.CritPath, path string) error {
	if path == "" || cp == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := cp.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Fprintf(os.Stderr, "wrote critical path to %s\n", path)
	}
	return werr
}

// runProfile executes the experiment's representative workload with
// the profiler on, prints the span tree (or profile JSON), and writes
// the Chrome trace next to the working directory.
func runProfile(id string, jsonOut bool, traceOut, metricsOut, critpathOut string) error {
	res, err := bench.ProfileRun(id, true)
	if err != nil {
		return err
	}
	pf := res.Profile
	if err := pf.Check(); err != nil {
		return fmt.Errorf("profile invariants violated: %w", err)
	}
	if err := writeCritPath(res.CritPath, critpathOut); err != nil {
		return err
	}
	if jsonOut {
		if err := pf.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		fmt.Printf("%s — %s\n", res.ID, res.Desc)
		for i, tt := range res.Times {
			fmt.Printf("  run %d: %.1f simulated us\n", i+1, float64(tt))
		}
		fmt.Println()
		pf.WriteTree(os.Stdout)
	}
	if metricsOut != "" && res.Metrics != nil {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		werr := error(nil)
		if strings.HasSuffix(metricsOut, ".prom") {
			werr = res.Metrics.WritePrometheus(f)
		} else {
			werr = res.Metrics.WriteJSON(f)
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", metricsOut)
	}
	if traceOut == "-" {
		return nil
	}
	if traceOut == "" {
		traceOut = fmt.Sprintf("vmprim-trace-%s.json", strings.ToLower(res.ID))
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	if err := pf.ChromeTrace(f, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", traceOut)
	return nil
}
