// Command vmload drives a vmprimd server with concurrent workload
// submissions and records the end-to-end latency distribution — the
// wall time from POST /runs to the run's terminal /wait response.
//
// Usage:
//
//	vmload                       1000 runs, 32 submitters, against an
//	                             in-process server (no network setup)
//	vmload -addr http://127.0.0.1:7790
//	                             drive an external vmprimd
//	vmload -runs 2000 -c 64 -exp E2 -d 4 -size 64
//	vmload -out load.json        also write the latency document as JSON
//
// The workload defaults to a small E1 (d=4, n=64): the point is
// serving-plane latency under concurrency, not simulator throughput,
// and the small cube keeps a thousand runs tractable on a one-core
// host. Exact percentiles come from the full sorted sample; the
// histogram block carries the same distribution in fixed buckets plus
// the interpolated estimates a Prometheus query would compute from
// them. Exit status is nonzero if any submission or run fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/metrics"
	"vmprim/internal/serve"
)

type loadConfig struct {
	Runs        int           `json:"runs"`
	Concurrency int           `json:"concurrency"`
	Spec        bench.RunSpec `json:"spec"`
	Server      string        `json:"server"`
	Workers     int           `json:"server_workers,omitempty"`
}

type percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

type loadResults struct {
	Completed  int     `json:"completed"`
	Failed     int     `json:"failed"`
	WallSecs   float64 `json:"wall_seconds"`
	RunsPerSec float64 `json:"throughput_runs_per_sec"`
	// LatencyUs holds exact sample percentiles of the submit-to-done
	// wall latency; MeanUs and MaxUs bound the distribution.
	LatencyUs percentiles `json:"latency_us"`
	MeanUs    float64     `json:"mean_us"`
	MaxUs     float64     `json:"max_us"`
	// HistEstimateUs re-derives the percentiles from the bucketed
	// histogram below by linear interpolation — what a dashboard would
	// show — as a cross-check on the bucket layout.
	HistEstimateUs percentiles `json:"histogram_estimate_us"`
	BoundsUs       []float64   `json:"histogram_bounds_us"`
	Counts         []int64     `json:"histogram_counts"`
}

type benchDoc struct {
	Description string      `json:"description"`
	Host        hostInfo    `json:"host"`
	Timestamp   string      `json:"timestamp"`
	Config      loadConfig  `json:"config"`
	Results     loadResults `json:"results"`
}

type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func main() {
	addr := flag.String("addr", "", "vmprimd base URL (empty spawns an in-process server)")
	runs := flag.Int("runs", 1000, "total submissions")
	conc := flag.Int("c", 32, "concurrent submitters")
	exp := flag.String("exp", "E1", "experiment family to submit (E1..E5)")
	dim := flag.Int("d", 4, "cube dimension (0 = experiment default)")
	size := flag.Int("size", 64, "problem size (0 = experiment default)")
	model := flag.String("model", "", "cost model (cm2 or ipsc)")
	workers := flag.Int("server-workers", 2, "executor workers for the in-process server")
	out := flag.String("out", "", "write the latency snapshot JSON to this path")
	flag.Parse()

	spec := bench.RunSpec{Exp: *exp, D: *dim, N: *size, Model: *model}
	norm, err := spec.Normalized()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmload: %v\n", err)
		os.Exit(2)
	}

	base := *addr
	serverDesc := base
	if base == "" {
		srv := serve.New(serve.Options{
			Workers: *workers,
			// Retention never below in-flight depth, so /wait can't lose
			// a run to eviction mid-poll.
			RetainRuns:   maxInt(256, 4**conc),
			QueueDepth:   maxInt(1024, 2**runs),
			PoolMachines: 4,
		})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmload: %v\n", err)
			os.Exit(2)
		}
		hs := &http.Server{Handler: srv.Handler()}
		// Serve returns when the deferred hs.Close closes the listener
		// at process exit.
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		serverDesc = "in-process"
	}

	doc, failedErr := drive(base, norm, *runs, *conc)
	doc.Config.Server = serverDesc
	if serverDesc == "in-process" {
		doc.Config.Workers = *workers
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *out != "" {
		var buf bytes.Buffer
		fenc := json.NewEncoder(&buf)
		fenc.SetIndent("", "  ")
		if err := fenc.Encode(doc); err == nil {
			err = os.WriteFile(*out, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmload: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "vmload: wrote %s\n", *out)
	} else {
		_ = enc.Encode(doc)
	}
	fmt.Fprintf(os.Stderr,
		"vmload: %d/%d runs ok in %.1fs (%.1f runs/s), latency p50 %.0fus p95 %.0fus p99 %.0fus\n",
		doc.Results.Completed, *runs, doc.Results.WallSecs, doc.Results.RunsPerSec,
		doc.Results.LatencyUs.P50, doc.Results.LatencyUs.P95, doc.Results.LatencyUs.P99)
	if failedErr != nil {
		fmt.Fprintf(os.Stderr, "vmload: FAILED: %v\n", failedErr)
		os.Exit(1)
	}
}

// drive fires total submissions from conc goroutines and assembles the
// latency document. The returned error is non-nil if any run failed.
func drive(base string, spec bench.RunSpec, total, conc int) (*benchDoc, error) {
	client := &http.Client{Timeout: 5 * time.Minute}
	reg := metrics.NewRegistry()
	hist := reg.Histogram("vmload_latency_us", "submit-to-done latency", serve.LatencyBoundsUs)

	latencies := make([]float64, total)
	var next, failures atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				lat, err := submitOne(client, base, spec)
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("run %d: %w", i, err))
					continue
				}
				latencies[i] = lat
				hist.Observe(lat)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	completed := total - int(failures.Load())
	ok := make([]float64, 0, completed)
	for _, l := range latencies {
		if l > 0 {
			ok = append(ok, l)
		}
	}
	sort.Float64s(ok)

	snap := reg.Snapshot()
	estimate := func(q float64) float64 {
		v, _ := snap.Quantile("vmload_latency_us", q)
		return v
	}
	res := loadResults{
		Completed:  completed,
		Failed:     int(failures.Load()),
		WallSecs:   round3(wall.Seconds()),
		RunsPerSec: round3(float64(completed) / wall.Seconds()),
		LatencyUs: percentiles{
			P50: exactQ(ok, 0.50), P90: exactQ(ok, 0.90),
			P95: exactQ(ok, 0.95), P99: exactQ(ok, 0.99),
		},
		MeanUs: round3(mean(ok)),
		HistEstimateUs: percentiles{
			P50: round3(estimate(0.50)), P90: round3(estimate(0.90)),
			P95: round3(estimate(0.95)), P99: round3(estimate(0.99)),
		},
		BoundsUs: serve.LatencyBoundsUs,
	}
	if len(ok) > 0 {
		res.MaxUs = round3(ok[len(ok)-1])
	}
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == "vmload_latency_us" {
			for _, b := range snap.Metrics[i].Buckets {
				res.Counts = append(res.Counts, b.Count)
			}
		}
	}

	doc := &benchDoc{
		Description: fmt.Sprintf(
			"vmprimd serving-plane load test: %d concurrent submitters driving %d %s (d=%d, n=%d, %s) runs end to end (POST /runs through terminal /wait); latencies are wall time in microseconds. Exact percentiles from the full sorted sample; the histogram block is the same distribution in fixed buckets with Prometheus-style interpolated estimates.",
			conc, total, spec.Exp, spec.D, spec.N, spec.Model),
		Host: hostInfo{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		},
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Config:    loadConfig{Runs: total, Concurrency: conc, Spec: spec},
		Results:   res,
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return doc, fmt.Errorf("%d/%d runs failed, first: %w", failures.Load(), total, err)
	}
	return doc, nil
}

// submitOne posts one run and waits for its terminal state, returning
// the wall latency in microseconds.
func submitOne(client *http.Client, base string, spec bench.RunSpec) (float64, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := client.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := decodeTo(resp, http.StatusAccepted, &st); err != nil {
		return 0, err
	}
	for {
		resp, err := client.Get(base + "/runs/" + st.ID + "/wait?timeout=60s")
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusAccepted { // wait timeout: poll again
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		if err := decodeTo(resp, http.StatusOK, &st); err != nil {
			return 0, err
		}
		break
	}
	if st.State != "done" {
		return 0, fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return float64(time.Since(start).Microseconds()), nil
}

// decodeTo checks the status and decodes the JSON body, draining and
// closing it either way.
func decodeTo(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// exactQ returns the q-quantile of sorted (nearest-rank), 0 if empty.
func exactQ(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return round3(sorted[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// round3 keeps the JSON readable: microsecond quantities to 3 places.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
