package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
	"vmprim/internal/serve"
)

// sessionSpecs is what one session submits, in order. RunSpec carries
// no seed (the experiments fix their own), so this workload's inputs
// are the same on every -seed. The five distinct (dimension, model)
// pool keys exceed the server's default pool of 4, so the pool-miss
// path (hypercube.New / Close) runs in every session.
var sessionSpecs = []bench.RunSpec{
	{Exp: "E1", D: 4, N: 64},
	{Exp: "E2", D: 5, N: 64},
	{Exp: "E3", D: 4, N: 32, Model: "ipsc"},
	{Exp: "E4", D: 3, N: 16},
	{Exp: "E5", D: 4, N: 8},
	{Exp: "E1", D: 5, N: 64, Model: "ipsc"},
}

// servedDocs are the artifacts a session fetches and hashes per run.
var servedDocs = []string{"profile", "critpath", "trace"}

// scrapeEvery is how many sessions a client runs between two scrapes of
// the server-wide /metrics.
const scrapeEvery = 50

// serveInst is the serve workload: closed-loop clients against an
// in-process vmprimd behind a real HTTP listener. It is the only
// workload with the full recorder set armed and with rendering,
// registry and pool work; its cubes are tiny.
type serveInst struct {
	srv      *serve.Server
	ts       *httptest.Server
	http     *http.Client
	bodies   [][]byte // the specs as request bodies
	names    []string
	sessions []int        // per client: sessions run so far
	rejected atomic.Int64 // 503 answers seen
	scrapeMs []float64    // wall ms of the harness's own /metrics scrapes
}

func specName(s bench.RunSpec) string {
	n, _ := s.Normalized()
	return fmt.Sprintf("%s-d%d-n%d-%s", n.Exp, n.D, n.N, n.Model)
}

func setupServe(int64) (instance, error) {
	w := &serveInst{
		srv:      serve.New(serve.Options{Workers: 2}),
		http:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		sessions: make([]int, serveClients),
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	for _, s := range sessionSpecs {
		body, err := json.Marshal(s)
		if err != nil {
			w.close()
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		w.names = append(w.names, specName(s))
	}
	// What the server serves must be what the same specs render when run
	// directly, byte for byte.
	direct, err := directCycle()
	if err != nil {
		w.close()
		return nil, err
	}
	first := &client{}
	if err := w.cycle(first); err != nil {
		w.close()
		return nil, err
	}
	if d := diffCycle(first.recs, direct); d != "" {
		w.close()
		return nil, fmt.Errorf("served session differs from RunSpec.RunOn run directly: %s", d)
	}
	return w, nil
}

const serveClients = 2

// directCycle renders every session spec directly: RunSpec.RunOn on a
// fresh machine, then the same writers the server uses.
func directCycle() ([]callRec, error) {
	var recs []callRec
	for _, s := range sessionSpecs {
		spec, err := s.Normalized()
		if err != nil {
			return nil, err
		}
		m, err := hypercube.New(spec.D, spec.CostParams())
		if err != nil {
			return nil, err
		}
		res, err := spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})
		m.Close()
		if err != nil {
			return nil, err
		}
		var us float64
		for _, t := range res.Times {
			us += float64(t)
		}
		msgs, _ := res.Metrics.Value("vmprim_messages_total")
		words, _ := res.Metrics.Value("vmprim_words_total")
		name := specName(s)
		recs = append(recs, callRec{Call: name, SimUs: us, Msgs: int64(msgs), Words: int64(words)})
		for _, doc := range servedDocs {
			h := sha256.New()
			switch doc {
			case "profile":
				err = res.Profile.WriteJSON(h)
			case "critpath":
				err = res.CritPath.WriteJSON(h)
			case "trace":
				err = res.Profile.ChromeTrace(h, 0)
			}
			if err != nil {
				return nil, err
			}
			recs = append(recs, callRec{Call: name + "/" + doc, SHA256: hex.EncodeToString(h.Sum(nil))})
		}
	}
	return recs, nil
}

// get issues one GET under a span, insists on 200 and hands the body to
// sink.
func (w *serveInst) get(c *client, spanName, path string, sink io.Writer) error {
	c.tr.begin(spanName)
	defer c.tr.end()
	resp, err := w.http.Get(w.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.noteStatus(resp.StatusCode)
		_, _ = io.Copy(io.Discard, resp.Body) // only so the connection is reused
		return fmt.Errorf("GET %s: HTTP %d, want 200", path, resp.StatusCode)
	}
	_, err = io.Copy(sink, resp.Body)
	return err
}

func (w *serveInst) noteStatus(code int) {
	if code == http.StatusServiceUnavailable {
		w.rejected.Add(1)
	}
}

// cycle is one session: every spec submitted, waited for and its four
// artifacts fetched, in order.
func (w *serveInst) cycle(c *client) error {
	var buf bytes.Buffer
	for i, body := range w.bodies {
		c.tr.begin("serve.submit")
		resp, err := w.http.Post(w.ts.URL+"/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			c.tr.end()
			return err
		}
		var st struct {
			ID      string    `json:"id"`
			State   string    `json:"state"`
			Error   string    `json:"error"`
			TimesUs []float64 `json:"times_us"`
		}
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		c.tr.end()
		if code != http.StatusAccepted {
			w.noteStatus(code)
			return fmt.Errorf("POST /runs: HTTP %d, want 202", code)
		}
		if err != nil {
			return fmt.Errorf("POST /runs: %w", err)
		}
		base := "/runs/" + st.ID

		buf.Reset()
		if err := w.get(c, "serve.wait", base+"/wait?timeout=60s", &buf); err != nil {
			return err
		}
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			return fmt.Errorf("GET %s/wait: %w", base, err)
		}
		if st.State != "done" {
			return fmt.Errorf("run %s (%s) ended %s: %s", st.ID, w.names[i], st.State, st.Error)
		}
		run := callRec{Call: w.names[i]}
		for _, t := range st.TimesUs {
			run.SimUs += t
		}

		var docs [3]callRec
		for d, doc := range servedDocs {
			h := sha256.New()
			if err := w.get(c, "serve."+doc, base+"/"+doc, h); err != nil {
				return err
			}
			docs[d] = callRec{Call: w.names[i] + "/" + doc, SHA256: hex.EncodeToString(h.Sum(nil))}
		}

		buf.Reset()
		if err := w.get(c, "serve.runmetrics", base+"/metrics", &buf); err != nil {
			return err
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			return fmt.Errorf("GET %s/metrics: %w", base, err)
		}
		msgs, _ := snap.Value("vmprim_messages_total")
		words, _ := snap.Value("vmprim_words_total")
		run.Msgs, run.Words = int64(msgs), int64(words)
		c.recs = append(append(c.recs, run), docs[:]...)
	}
	w.sessions[c.id]++
	if w.sessions[c.id]%scrapeEvery == 0 {
		return w.get(c, "serve.scrape", "/metrics", io.Discard)
	}
	return nil
}

// counters reads the server's own Prometheus exposition into a map of
// its plain (unlabelled) sample values, next to what the clients
// counted themselves.
func (w *serveInst) counters() (map[string]float64, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := w.get(&client{}, "", "/metrics", &buf); err != nil {
		return nil, err
	}
	w.scrapeMs = append(w.scrapeMs, ms(time.Since(t0)))
	out := map[string]float64{"rejected": float64(w.rejected.Load())}
	for _, n := range w.sessions {
		out["sessions"] += float64(n)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func (w *serveInst) layerMetrics(delta map[string]float64, sum spanSummary, out map[string]float64) error {
	hits, misses := delta["vmprimd_pool_hits_total"], delta["vmprimd_pool_misses_total"]
	out["serve.pool_hit_ratio"] = ratio(hits, hits+misses)
	out["serve.rejected"] = delta["rejected"]
	out["serve.sse_dropped"] = delta["vmprimd_events_dropped_total"]
	out["serve.runs_done"] = delta["vmprimd_runs_done_total"]
	out["serve.scrape_ms"] = median(append(w.scrapeMs, sum.durMs["serve.scrape"]...))
	// A run is under way from its submit until its wait returns; what the
	// simulate stage does not account for of that, the session's six runs
	// spent queued, acquiring a machine or being answered. Only traced
	// sessions leave spans (every other one when serve is the subject of
	// the run), so the mean is over the cycle spans, not over every
	// session the loop ran.
	var inFlight float64
	for _, name := range []string{"serve.submit", "serve.wait"} {
		for _, d := range sum.durMs[name] {
			inFlight += d
		}
	}
	traced := float64(len(sum.durMs["cycle"]))
	out["serve.queue_wait_ms"] = ratio(inFlight, traced) - out["bench.runon_armed_ms"]
	if want := delta["sessions"] * float64(len(sessionSpecs)); delta["vmprimd_runs_done_total"] != want {
		return fmt.Errorf("server finished %g runs over %g sessions, want %g",
			delta["vmprimd_runs_done_total"], delta["sessions"], want)
	}
	return nil
}

func (w *serveInst) close() {
	w.ts.Close()
	w.http.CloseIdleConnections()
	w.srv.Close()
}
