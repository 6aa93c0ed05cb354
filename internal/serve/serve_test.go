package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"

	"vmprim/internal/bench"
	"vmprim/internal/hypercube"
	"vmprim/internal/testutil"
)

// testSpec is the small workload the tests submit: every primitive on
// a d=4 cube, cheap enough to run many times on the 1-core CI host.
var testSpec = bench.RunSpec{Exp: "E1", D: 4, N: 64}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	// Registered before the close cleanup below so it runs after it
	// (cleanups are LIFO): by the time the leak check polls, Close has
	// already signalled the workers and every run's broadcaster.
	before := testutil.Snapshot()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		testutil.CheckLeaks(t, before)
	})
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submitAndWait posts spec and blocks on /wait, returning the run ID.
func submitAndWait(t *testing.T, base string, spec bench.RunSpec) string {
	t.Helper()
	st := postSpec(t, base, spec, http.StatusAccepted)
	resp := mustGet(t, base+"/runs/"+st.ID+"/wait", http.StatusOK)
	var fin runStatusJSON
	decodeBody(t, resp, &fin)
	if fin.State != StateDone {
		t.Fatalf("run %s finished %s: %s", st.ID, fin.State, fin.Error)
	}
	return st.ID
}

func postSpec(t *testing.T, base string, spec bench.RunSpec, wantStatus int) runStatusJSON {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /runs = %d, want %d: %s", resp.StatusCode, wantStatus, b)
	}
	var st runStatusJSON
	decodeBody(t, resp, &st)
	return st
}

func mustGet(t *testing.T, url string, wantStatus int) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, b)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp := mustGet(t, url, http.StatusOK)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// directArtifacts runs spec on a fresh machine built for it, as the
// CLI does, and renders the documents a served run exposes: profile,
// trace, critpath and the run's metrics.
func directArtifacts(t *testing.T, spec bench.RunSpec) map[string][]byte {
	t.Helper()
	spec, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	m, err := hypercube.New(spec.D, spec.CostParams())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	var prof, trace, cp, met bytes.Buffer
	for _, err := range []error{
		res.Profile.WriteJSON(&prof),
		res.Profile.ChromeTrace(&trace, 0),
		res.CritPath.WriteJSON(&cp),
		res.Metrics.WriteJSON(&met),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]byte{
		"profile": prof.Bytes(), "trace": trace.Bytes(),
		"critpath": cp.Bytes(), "metrics": met.Bytes(),
	}
}

// simulatedDocs are the served documents that are a function of the
// spec alone, byte for byte.
var simulatedDocs = []string{"profile", "trace", "critpath"}

// Served artifacts must be the same documents the CLI writers produce
// for the same spec: profile, Chrome trace and critical-path JSON
// byte-identical, per-run metrics identical after dropping the
// host-nondeterministic scheduler counters.
func TestServedArtifactsMatchDirectRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	id := submitAndWait(t, ts.URL, testSpec)
	// A successful run's metrics are its result's snapshot, not a second
	// one taken after it.
	run, _ := s.reg.get(id)
	if res, met, _ := run.artifacts(); res == nil || met != res.Metrics {
		t.Errorf("the run's metrics are not its result's snapshot")
	}

	spec, err := testSpec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	m, err := hypercube.New(spec.D, spec.CostParams())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want, err := spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}

	var profBuf, traceBuf, cpBuf, metBuf bytes.Buffer
	if err := want.Profile.WriteJSON(&profBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Profile.ChromeTrace(&traceBuf, 0); err != nil {
		t.Fatal(err)
	}
	if err := want.CritPath.WriteJSON(&cpBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Metrics.WriteJSON(&metBuf); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		artifact string
		want     []byte
	}{
		{"profile", profBuf.Bytes()},
		{"trace", traceBuf.Bytes()},
		{"critpath", cpBuf.Bytes()},
	} {
		got := getBody(t, fmt.Sprintf("%s/runs/%s/%s", ts.URL, id, tc.artifact))
		if !bytes.Equal(got, tc.want) {
			t.Errorf("served %s differs from the CLI writer's output (%d vs %d bytes)",
				tc.artifact, len(got), len(tc.want))
		}
	}

	// The run executed on the server's first (fresh) pooled machine, so
	// its metrics equal the direct run's snapshot — except the
	// host-scheduler counters, which are nondeterministic by design.
	got := getBody(t, fmt.Sprintf("%s/runs/%s/metrics", ts.URL, id))
	if diff := diffMetricsJSON(t, got, metBuf.Bytes()); diff != "" {
		t.Errorf("served per-run metrics differ from direct run: %s", diff)
	}
}

// diffMetricsJSON compares two metrics-snapshot JSON documents, ignoring
// the metrics named by the ignore prefixes, and returns a description of
// the first difference ("" when equal).
func diffMetricsJSON(t *testing.T, a, b []byte, ignore ...string) string {
	t.Helper()
	parse := func(raw []byte) map[string]json.RawMessage {
		var doc struct {
			Metrics []struct {
				Name string `json:"name"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		var full struct {
			Metrics []json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &full); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]json.RawMessage)
	metric:
		for i, m := range doc.Metrics {
			for _, pre := range ignore {
				if strings.HasPrefix(m.Name, pre) {
					continue metric
				}
			}
			out[m.Name] = full.Metrics[i]
		}
		return out
	}
	ma, mb := parse(a), parse(b)
	if len(ma) != len(mb) {
		return fmt.Sprintf("%d vs %d comparable metrics", len(ma), len(mb))
	}
	for name, ra := range ma {
		rb, ok := mb[name]
		if !ok {
			return "metric " + name + " missing from one side"
		}
		if !bytes.Equal(ra, rb) {
			return fmt.Sprintf("metric %s: %s vs %s", name, ra, rb)
		}
	}
	return ""
}

// A spec resubmitted to a warm server must reuse the pooled machine
// and serve bit-identical simulated artifacts.
func TestPooledRerunIsIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id1 := submitAndWait(t, ts.URL, testSpec)
	id2 := submitAndWait(t, ts.URL, testSpec)

	var st runStatusJSON
	decodeBody(t, mustGet(t, ts.URL+"/runs/"+id2, http.StatusOK), &st)
	if !st.PoolHit {
		t.Error("second run of the same spec did not hit the machine pool")
	}
	for _, artifact := range []string{"profile", "trace", "critpath"} {
		a := getBody(t, fmt.Sprintf("%s/runs/%s/%s", ts.URL, id1, artifact))
		b := getBody(t, fmt.Sprintf("%s/runs/%s/%s", ts.URL, id2, artifact))
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between identical runs on a pooled machine", artifact)
		}
	}
	// The buffer-pool counters depend on how warm the machine's free
	// lists are, so a fresh-machine first run and a pooled rerun differ
	// there by design; everything simulated must match exactly.
	am := getBody(t, fmt.Sprintf("%s/runs/%s/metrics", ts.URL, id1))
	bm := getBody(t, fmt.Sprintf("%s/runs/%s/metrics", ts.URL, id2))
	if diff := diffMetricsJSON(t, am, bm, "vmprim_pool_"); diff != "" {
		t.Errorf("per-run metrics differ between identical runs: %s", diff)
	}
}

// One pooled cube serves both cost models: through a pool of one
// machine, E1, E3, E4 and E5 at d=4 alternate cm2 and ipsc, so every
// run after the first takes the machine its predecessor left, warmed
// under the other model. Each must serve exactly the documents a fresh
// machine built for its spec renders, and the same per-run metrics
// apart from the buffer-pool counters, which follow the machine's
// warmth.
func TestPooledMachineServesEitherModel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, PoolMachines: 1})
	// Models alternate run to run; each experiment runs under both.
	specs := []bench.RunSpec{
		{Exp: "E1", D: 4, N: 64, Model: "cm2"}, {Exp: "E3", D: 4, N: 32, Model: "ipsc"},
		{Exp: "E4", D: 4, N: 16, Model: "cm2"}, {Exp: "E5", D: 4, N: 8, Model: "ipsc"},
		{Exp: "E3", D: 4, N: 32, Model: "cm2"}, {Exp: "E1", D: 4, N: 64, Model: "ipsc"},
		{Exp: "E5", D: 4, N: 8, Model: "cm2"}, {Exp: "E4", D: 4, N: 16, Model: "ipsc"},
	}
	for i, spec := range specs {
		id := submitAndWait(t, ts.URL, spec)
		var st runStatusJSON
		decodeBody(t, mustGet(t, ts.URL+"/runs/"+id, http.StatusOK), &st)
		if st.PoolHit != (i > 0) {
			t.Errorf("run %d (%+v): pool_hit %v, want %v", i, spec, st.PoolHit, i > 0)
		}
		want := directArtifacts(t, spec)
		for _, artifact := range simulatedDocs {
			if got := getBody(t, fmt.Sprintf("%s/runs/%s/%s", ts.URL, id, artifact)); !bytes.Equal(got, want[artifact]) {
				t.Errorf("run %d (%+v): served %s differs from a fresh machine's (%d vs %d bytes)",
					i, spec, artifact, len(got), len(want[artifact]))
			}
		}
		got := getBody(t, fmt.Sprintf("%s/runs/%s/metrics", ts.URL, id))
		if diff := diffMetricsJSON(t, got, want["metrics"], "vmprim_pool_"); diff != "" {
			t.Errorf("run %d (%+v): per-run metrics differ from a fresh machine's: %s", i, spec, diff)
		}
	}
}

// Retention: finished runs beyond the cap are evicted oldest-first,
// retained runs keep serving, and an evicted ID answers a structured
// 404 distinct from an unknown one.
func TestRunRetentionEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, RetainRuns: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submitAndWait(t, ts.URL, testSpec))
	}

	for _, id := range ids[:2] {
		resp := mustGet(t, ts.URL+"/runs/"+id, http.StatusNotFound)
		var e struct {
			Error apiError `json:"error"`
		}
		decodeBody(t, resp, &e)
		if e.Error.Code != "gone" {
			t.Errorf("evicted run %s answered code %q, want gone", id, e.Error.Code)
		}
		if e.Error.Message == "" {
			t.Errorf("evicted run %s has no error message", id)
		}
	}
	for _, id := range ids[2:] {
		if body := getBody(t, ts.URL+"/runs/"+id+"/profile"); len(body) == 0 {
			t.Errorf("retained run %s served an empty profile", id)
		}
	}
	// Never issued, and another spelling of an evicted number.
	for _, id := range []string{"r-999999", "r-1"} {
		resp := mustGet(t, ts.URL+"/runs/"+id, http.StatusNotFound)
		var e struct {
			Error apiError `json:"error"`
		}
		decodeBody(t, resp, &e)
		if e.Error.Code != "not_found" {
			t.Errorf("unknown run %s answered code %q, want not_found", id, e.Error.Code)
		}
	}

	var list struct {
		Runs []runStatusJSON `json:"runs"`
	}
	decodeBody(t, mustGet(t, ts.URL+"/runs", http.StatusOK), &list)
	if len(list.Runs) != 2 || list.Runs[0].ID != ids[2] || list.Runs[1].ID != ids[3] {
		t.Errorf("list after eviction = %+v, want %v in submission order", list.Runs, ids[2:])
	}
}

// The events endpoint is a well-formed SSE stream: span events balance,
// a progress mark and link census arrive, and the final frame is
// `event: done` carrying the terminal status.
func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id := submitAndWait(t, ts.URL, testSpec)

	resp := mustGet(t, ts.URL+"/runs/"+id+"/events", http.StatusOK)
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", got)
	}

	type frame struct{ event, data string }
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	cur := frame{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event == "" || cur.data == "" {
				t.Fatalf("malformed SSE frame %+v", cur)
			}
			frames = append(frames, cur)
			cur = frame{}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}

	opens, closes, progress, links := 0, 0, 0, 0
	for _, f := range frames[:len(frames)-1] {
		if !json.Valid([]byte(f.data)) {
			t.Fatalf("frame %q carries invalid JSON: %s", f.event, f.data)
		}
		switch f.event {
		case "span_open":
			opens++
		case "span_close":
			closes++
		case "progress":
			progress++
		case "link_congestion":
			links++
		default:
			t.Fatalf("unknown SSE event %q", f.event)
		}
	}
	if opens == 0 || opens != closes {
		t.Errorf("span events unbalanced: %d opens, %d closes", opens, closes)
	}
	if progress == 0 || links == 0 {
		t.Errorf("missing summary events: %d progress, %d link", progress, links)
	}
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("final frame is %q, want done", last.event)
	}
	var st runStatusJSON
	if err := json.Unmarshal([]byte(last.data), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.ID != id {
		t.Fatalf("done frame carries %+v", st)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// Satellite e2e scrape: /metrics speaks Prometheus text format 0.0.4,
// every line parses, and the exposition folds both the serving
// counters and the simulated per-run metrics.
func TestMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	submitAndWait(t, ts.URL, testSpec)

	values, types, histSeries := scrape(t, ts.URL)

	// Serving counters and gauges.
	if v := values["vmprimd_runs_done_total"]; v < 1 {
		t.Errorf("vmprimd_runs_done_total = %g, want >= 1", v)
	}
	if _, ok := values["vmprimd_runs_inflight"]; !ok {
		t.Error("vmprimd_runs_inflight missing")
	}
	if types["vmprimd_runs_submitted_total"] != "counter" || types["vmprimd_queue_depth"] != "gauge" {
		t.Errorf("serving metric TYPEs wrong: %v %v",
			types["vmprimd_runs_submitted_total"], types["vmprimd_queue_depth"])
	}
	// Folded simulated metrics from the finished run.
	if v := values["vmprim_runs_total"]; v < 1 {
		t.Errorf("folded vmprim_runs_total = %g, want >= 1", v)
	}
	if v := values["vmprim_words_total"]; v <= 0 {
		t.Errorf("folded vmprim_words_total = %g, want > 0", v)
	}
	// Per-endpoint latency histogram: POST /runs must have observed at
	// least one request, with a +Inf bucket equal to its count.
	histName := "vmprimd_http_post_runs_duration_us"
	if types[histName] != "histogram" {
		t.Fatalf("%s TYPE = %q, want histogram", histName, types[histName])
	}
	if v := values[histName+"_count"]; v < 1 {
		t.Errorf("%s_count = %g, want >= 1", histName, v)
	}
	infSeen := false
	for _, series := range histSeries {
		if strings.HasPrefix(series, histName+"_bucket") && strings.Contains(series, `le="+Inf"`) {
			infSeen = true
		}
	}
	if !infSeen {
		t.Errorf("%s has no +Inf bucket", histName)
	}
}

// /metrics carries the Go runtime's samples, read at scrape time: every
// scalar and histogram is present with its TYPE, and the GC cycle and
// pause counts advance across a forced collection between two scrapes.
func TestMetricsGoRuntime(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	first, types, _ := scrape(t, ts.URL)
	for _, s := range goSeries {
		want := "gauge"
		if s.counter {
			want = "counter"
		}
		if types[s.name] != want {
			t.Errorf("%s TYPE = %q, want %s", s.name, types[s.name], want)
		}
		if _, ok := first[s.name]; !ok {
			t.Errorf("%s missing", s.name)
		}
	}
	for _, name := range []string{"vmprimd_go_heap_alloc_bytes_total", "vmprimd_go_goroutines", "vmprimd_go_stack_bytes"} {
		if first[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, first[name])
		}
	}
	for _, h := range goHistograms {
		if types[h.name] != "histogram" {
			t.Errorf("%s TYPE = %q, want histogram", h.name, types[h.name])
		}
	}
	// Goroutines have been scheduled, and the test binary has collected.
	for _, name := range []string{"vmprimd_go_sched_latency_seconds_count", "vmprimd_go_sched_latency_seconds_bucket"} {
		if first[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, first[name])
		}
	}
	runtime.GC()
	second, _, _ := scrape(t, ts.URL)
	for _, name := range []string{"vmprimd_go_gc_cycles_total", "vmprimd_go_gc_pause_seconds_count"} {
		if second[name] <= first[name] {
			t.Errorf("%s went %g -> %g across runtime.GC, want an increase", name, first[name], second[name])
		}
	}
	// Each scrape folds only what the runtime counted since the previous
	// one, so the exported count is the runtime's own total.
	pauses := func() float64 {
		s := []rtmetrics.Sample{{Name: goHistograms[0].sample}}
		rtmetrics.Read(s)
		var n uint64
		for _, c := range s[0].Value.Float64Histogram().Counts {
			n += c
		}
		return float64(n)
	}
	before := pauses()
	third, _, _ := scrape(t, ts.URL)
	after := pauses()
	if c := third["vmprimd_go_gc_pause_seconds_count"]; c < before || c > after {
		t.Errorf("gc pause count %g, runtime counted %g before the scrape and %g after", c, before, after)
	}
}

// scrape GETs /metrics and parses the text exposition: sample values by
// metric name (the last series wins for labelled ones), TYPEs by name,
// and the labelled series names.
func scrape(t *testing.T, base string) (values map[string]float64, types map[string]string, histSeries []string) {
	t.Helper()
	resp := mustGet(t, base+"/metrics", http.StatusOK)
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != promContentType {
		t.Fatalf("Content-Type = %q, want %q", got, promContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	values = map[string]float64{}
	types = map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("no value on line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(valStr, "%g", &v); err != nil && valStr != "+Inf" {
			t.Fatalf("bad value on line %q: %v", line, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			histSeries = append(histSeries, name)
			name = name[:i]
		}
		values[name] = v
	}
	return values, types, histSeries
}

// Bad submissions answer structured 400s (413 past maxSpecBytes); a
// body must hold exactly one JSON value, though trailing whitespace is
// fine.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"unknown exp", `{"exp":"E9"}`, http.StatusBadRequest},
		{"d out of range", `{"exp":"E1","d":99}`, http.StatusBadRequest},
		{"unknown field", `{"exp":"E1","frobnicate":1}`, http.StatusBadRequest},
		{"not json", `not json`, http.StatusBadRequest},
		{"trailing junk", `{"exp":"E1"} junk`, http.StatusBadRequest},
		{"second value", `{"exp":"E1"}{"exp":"E2"}`, http.StatusBadRequest},
		{"stray brace", `{"exp":"E1"} }`, http.StatusBadRequest},
		{"oversized value", `{"model":"` + strings.Repeat("x", maxSpecBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"oversized tail", `{"exp":"E1"}` + strings.Repeat(" ", maxSpecBytes), http.StatusRequestEntityTooLarge},
		{"trailing newline", `{"exp":"E1","d":4,"n":64}` + "\n", http.StatusAccepted},
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.want {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("%s: POST /runs = %d, want %d: %s", tc.name, resp.StatusCode, tc.want, b)
		}
		if tc.want == http.StatusAccepted {
			resp.Body.Close()
			continue
		}
		var e struct {
			Error apiError `json:"error"`
		}
		decodeBody(t, resp, &e)
		if e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("%s: unstructured error %+v", tc.name, e)
		}
	}
}

// TestDebugHandlerServesPprof: pprof answers on the debug mux and is
// absent from the API handler.
func TestDebugHandlerServesPprof(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	dbg := httptest.NewServer(DebugHandler())
	defer dbg.Close()
	getBody(t, dbg.URL+"/debug/pprof/cmdline")
	if idx := getBody(t, dbg.URL+"/debug/pprof/"); !bytes.Contains(idx, []byte("goroutine")) {
		t.Fatalf("pprof index lists no goroutine profile:\n%s", idx)
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/pprof/"} {
		mustGet(t, ts.URL+path, http.StatusNotFound).Body.Close()
	}
}
