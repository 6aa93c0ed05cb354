package router

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
	"vmprim/internal/obs"
	"vmprim/internal/testutil"
)

func TestRouteAllToOne(t *testing.T) {
	m := hypercube.MustNew(4, costmodel.CM2())
	var got []Msg
	_, err := m.Run(func(p *hypercube.Proc) {
		out := []Msg{{Dst: 5, Key: p.ID(), Words: []float64{float64(p.ID()) * 2}}}
		in := Route(p, 1, out)
		if p.ID() == 5 {
			got = in
		} else if len(in) != 0 {
			panic("non-destination received messages")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != m.P() {
		t.Fatalf("destination received %d messages, want %d", len(got), m.P())
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	for i, msg := range got {
		if msg.Key != i || msg.Words[0] != float64(i)*2 || msg.Dst != 5 {
			t.Fatalf("message %d: %+v", i, msg)
		}
	}
}

func TestRouteRandomPermutation(t *testing.T) {
	m := hypercube.MustNew(5, costmodel.CM2())
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(m.P())
	received := make([][]Msg, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := []Msg{{Dst: perm[p.ID()], Key: p.ID(), Words: []float64{1, 2, 3}}}
		received[p.ID()] = Route(p, 1, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		msgs := received[pid]
		if len(msgs) != 1 {
			t.Fatalf("proc %d received %d messages", pid, len(msgs))
		}
		if perm[msgs[0].Key] != pid {
			t.Fatalf("proc %d got message keyed %d, but perm[%d]=%d", pid, msgs[0].Key, msgs[0].Key, perm[msgs[0].Key])
		}
	}
}

func TestRouteSelfDelivery(t *testing.T) {
	m := hypercube.MustNew(3, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		in := Route(p, 1, []Msg{{Dst: p.ID(), Key: 9, Words: []float64{7}}})
		if len(in) != 1 || in[0].Key != 9 || in[0].Words[0] != 7 {
			panic("self-delivery failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteEmpty(t *testing.T) {
	m := hypercube.MustNew(3, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		if in := Route(p, 1, nil); len(in) != 0 {
			panic("messages from nowhere")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteManyToMany(t *testing.T) {
	// Every processor sends one message to every processor; everyone
	// must receive exactly P messages, one from each origin.
	m := hypercube.MustNew(4, costmodel.CM2())
	received := make([][]Msg, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := make([]Msg, p.P())
		for q := 0; q < p.P(); q++ {
			out[q] = Msg{Dst: q, Key: p.ID(), Words: []float64{float64(p.ID()*p.P() + q)}}
		}
		received[p.ID()] = Route(p, 1, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		if len(received[pid]) != m.P() {
			t.Fatalf("proc %d received %d, want %d", pid, len(received[pid]), m.P())
		}
		seen := make(map[int]bool)
		for _, msg := range received[pid] {
			if seen[msg.Key] {
				t.Fatalf("proc %d received duplicate from %d", pid, msg.Key)
			}
			seen[msg.Key] = true
			if msg.Words[0] != float64(msg.Key*m.P()+pid) {
				t.Fatalf("proc %d message from %d has payload %v", pid, msg.Key, msg.Words)
			}
		}
	}
}

func TestRouteDestinationRangeChecked(t *testing.T) {
	m := hypercube.MustNew(2, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		if p.ID() == 0 {
			Route(p, 1, []Msg{{Dst: 99}})
		} else {
			Route(p, 1, nil)
		}
	})
	if err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestRouteCostsMoreThanStructured(t *testing.T) {
	// Moving the same volume as P one-element messages through the
	// router must cost more simulated time than one combined
	// structured broadcast-sized transfer; this gap is the paper's
	// naive-vs-primitive story.
	m := hypercube.MustNew(5, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := make([]Msg, 8)
		for j := range out {
			out[j] = Msg{Dst: (p.ID() + j + 1) % p.P(), Key: j, Words: []float64{1}}
		}
		Route(p, 1, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	routed := m.Elapsed()
	_, err = m.Run(func(p *hypercube.Proc) {
		// Equivalent structured volume: one 8-word exchange per dim.
		buf := make([]float64, 8)
		for i := 0; i < p.Dim(); i++ {
			p.Exchange(i, 2, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	structured := m.Elapsed()
	if routed <= structured {
		t.Fatalf("router (%v) not more expensive than structured (%v)", routed, structured)
	}
}

func TestRequestFetchesRemoteValues(t *testing.T) {
	m := hypercube.MustNew(4, costmodel.CM2())
	// Each processor owns value id*100+key for keys 0..3; every
	// processor fetches key (pid mod 4) from every other processor.
	results := make([][][]float64, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		key := p.ID() % 4
		want := make([]Msg, p.P())
		for q := 0; q < p.P(); q++ {
			want[q] = Msg{Dst: q, Key: key}
		}
		results[p.ID()] = Request(p, 10, want, func(k int) []float64 {
			return []float64{float64(p.ID()*100 + k)}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		key := pid % 4
		for q := 0; q < m.P(); q++ {
			want := float64(q*100 + key)
			if len(results[pid][q]) != 1 || results[pid][q][0] != want {
				t.Fatalf("proc %d fetch from %d: got %v, want %v", pid, q, results[pid][q], want)
			}
		}
	}
}

func TestRequestNoRequests(t *testing.T) {
	m := hypercube.MustNew(3, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := Request(p, 1, nil, func(int) []float64 { return nil })
		if len(out) != 0 {
			panic("phantom responses")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The router this package shipped with until wire-form routing, kept
// verbatim as the oracle: encode/decode per phase, Exchange, and
// "kept, then arrivals" delivery order. New code must deliver the same
// messages in the same order at the same simulated cost.

// encode flattens messages for one link transfer.
func encode(msgs []Msg) []float64 {
	n := 0
	for _, m := range msgs {
		n += headerWords + len(m.Words)
	}
	flat := make([]float64, 0, n)
	for _, m := range msgs {
		flat = append(flat, float64(uint64(m.Dst)<<32|uint64(len(m.Words))), float64(m.Key))
		flat = append(flat, m.Words...)
	}
	return flat
}

// decode parses a link transfer back into messages.
func decode(flat []float64) []Msg {
	var msgs []Msg
	for i := 0; i < len(flat); {
		dl := uint64(flat[i])
		dst := int(dl >> 32)
		n := int(dl & 0xffffffff)
		key := int(flat[i+1])
		i += headerWords
		words := make([]float64, n)
		copy(words, flat[i:i+n])
		i += n
		msgs = append(msgs, Msg{Dst: dst, Key: key, Words: words})
	}
	return msgs
}

func routeReference(p *hypercube.Proc, tag int, outgoing []Msg) []Msg {
	p.BeginSpan("route")
	defer p.EndSpan()
	p.NoteCollective("route", p.FullMask(), tag)
	if p.Profiling() {
		// Predict from the local injection load: each of the d phases
		// forwards about half of what is pending here on average.
		words := 0
		for _, m := range outgoing {
			words += len(m.Words)
		}
		p.SpanPredict(costmodel.PredictRoute(p.Params(), p.Dim(), len(outgoing), words, headerWords))
	}
	for _, m := range outgoing {
		if m.Dst < 0 || m.Dst >= p.P() {
			panic(fmt.Sprintf("router: destination %d out of range [0,%d)", m.Dst, p.P()))
		}
	}
	pending := make([]Msg, len(outgoing))
	copy(pending, outgoing)
	for i := 0; i < p.Dim(); i++ {
		keep := pending[:0]
		var fwd []Msg
		words := 0
		for _, m := range pending {
			if (m.Dst>>i)&1 != (p.ID()>>i)&1 {
				fwd = append(fwd, m)
				words += len(m.Words)
			} else {
				keep = append(keep, m)
			}
		}
		pending = keep
		// The router charges per-phase start-up plus per-message
		// handling on the payload volume; the link transfer itself
		// (payload + headers) is charged by Exchange.
		p.RoutePhaseCharge(len(fwd), words)
		got := p.Exchange(i, tag<<6|i, encode(fwd))
		pending = append(pending, decode(got)...)
	}
	return pending
}

func requestReference(p *hypercube.Proc, tag int, want []Msg, serve func(key int) []float64) [][]float64 {
	p.BeginSpan("route-request")
	defer p.EndSpan()
	p.NoteCollective("route-request", p.FullMask(), tag)
	reqs := make([]Msg, len(want))
	for i, w := range want {
		reqs[i] = Msg{Dst: w.Dst, Key: w.Key, Words: []float64{float64(p.ID()), float64(i)}}
	}
	arrived := routeReference(p, tag, reqs)
	resps := make([]Msg, len(arrived))
	for i, r := range arrived {
		requester := int(r.Words[0])
		index := int(r.Words[1])
		payload := serve(r.Key)
		words := make([]float64, 0, 1+len(payload))
		words = append(words, float64(index))
		words = append(words, payload...)
		resps[i] = Msg{Dst: requester, Key: r.Key, Words: words}
	}
	back := routeReference(p, tag+1, resps)
	out := make([][]float64, len(want))
	for _, r := range back {
		index := int(r.Words[0])
		out[index] = r.Words[1:]
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Dst: 3, Key: 17, Words: []float64{1.5, -2}},
		{Dst: 0, Key: -1, Words: nil},
		{Dst: 7, Key: 0, Words: []float64{9}},
		{Dst: 1, Key: maxKey, Words: []float64{4}},
		{Dst: 2, Key: -maxKey},
	}
	// The wire form Route builds is the one the reference decodes.
	var wire []float64
	for _, m := range msgs {
		wire = append(appendHeader(wire, 8, m.Dst, m.Key, len(m.Words)), m.Words...)
	}
	if !reflect.DeepEqual(wire, encode(msgs)) {
		t.Fatalf("wire form %v, reference %v", wire, encode(msgs))
	}
	got := decode(wire)
	if len(got) != len(msgs) {
		t.Fatalf("decode count %d", len(got))
	}
	for i := range msgs {
		if got[i].Dst != msgs[i].Dst || got[i].Key != msgs[i].Key || len(got[i].Words) != len(msgs[i].Words) {
			t.Fatalf("message %d: %+v vs %+v", i, got[i], msgs[i])
		}
		for j := range msgs[i].Words {
			if got[i].Words[j] != msgs[i].Words[j] {
				t.Fatalf("message %d word %d", i, j)
			}
		}
	}
	if len(decode(nil)) != 0 {
		t.Fatal("decode(nil) non-empty")
	}
}

// TestWireHeaderRangeChecked: a key beyond ±2^53 would be rounded to a
// different key and a payload of 2^32 words would spill into the
// destination field; both must panic by name, like a bad destination.
func TestWireHeaderRangeChecked(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	for _, c := range []struct {
		dst, key, n int
		want        string
	}{
		{dst: 8, want: "destination 8 out of range [0,8)"},
		{dst: -1, want: "destination -1 out of range"},
		{key: maxKey + 1, want: "key 9007199254740993 not representable"},
		{key: -maxKey - 1, want: "key -9007199254740993 not representable"},
		{n: 1 << 32, want: "payload of 4294967296 words not representable"},
	} {
		if got := panicOf(func() { appendHeader(nil, 8, c.dst, c.key, c.n) }); !strings.Contains(got, c.want) {
			t.Errorf("header(dst %d, key %d, len %d): panic %q, want %q", c.dst, c.key, c.n, got, c.want)
		}
	}
	if got := panicOf(func() { appendHeader(nil, 8, 7, maxKey, math.MaxUint32) }); got != "<nil>" {
		t.Errorf("largest representable header panicked: %s", got)
	}
	// Through Route and Request: the run fails and names the key.
	m := hypercube.MustNew(2, costmodel.CM2())
	defer m.Close()
	for name, body := range map[string]func(p *hypercube.Proc, out []Msg){
		"Route":   func(p *hypercube.Proc, out []Msg) { Route(p, 1, out) },
		"Request": func(p *hypercube.Proc, out []Msg) { Request(p, 1, out, func(int) []float64 { return nil }) },
	} {
		_, err := m.Run(func(p *hypercube.Proc) {
			var out []Msg
			if p.ID() == 0 {
				out = []Msg{{Dst: 1, Key: 1<<53 + 1}}
			}
			body(p, out)
		})
		if err == nil || !strings.Contains(err.Error(), "key 9007199254740993 not representable") {
			t.Errorf("%s accepted an unrepresentable key: %v", name, err)
		}
	}
}

// traffic is one routed workload: what every processor injects.
type traffic struct {
	name string
	dim  int
	out  [][]Msg
}

// outcome is everything observable about one routed run, recorders
// included: the profile carries the span tree with its predictions and,
// with the message trace armed, the flows; metrics is the run's
// metrics snapshot without the host counters (frontier parks and pool
// traffic, which count host work); postmortem is the report of the
// same run failed by a panic on processor 0 right after the route,
// when runTraffic was asked for it.
type outcome struct {
	got        [][]Msg
	elapsed    costmodel.Time
	stats      hypercube.Stats
	clocks     []costmodel.Time
	profile    *obs.Profile
	crit       *obs.CritPath
	congestion []obs.LinkLoad
	metrics    string
	postmortem string
}

// hostMetrics are the metrics that count host work, not simulated
// work: a route that executes its phases differently moves them.
var hostMetrics = map[string]bool{
	"vmprim_sched_recv_parks_total": true,
	"vmprim_pool_gets_total":        true,
	"vmprim_pool_hits_total":        true,
	"vmprim_pool_hit_rate":          true,
}

// simMetrics renders m's metrics snapshot without the host counters.
func simMetrics(m *hypercube.Machine) string {
	var b strings.Builder
	for _, mv := range m.Metrics().Snapshot().Metrics {
		if !hostMetrics[mv.Name] {
			fmt.Fprintf(&b, "%+v\n", mv)
		}
	}
	return b.String()
}

func runTraffic(t testing.TB, tr traffic, route func(*hypercube.Proc, int, []Msg) []Msg) outcome {
	return runTrafficFailed(t, tr, route, false)
}

// runTrafficFailed is runTraffic, and with failed set it routes tr a
// second time on the same machine with processor 0 panicking right
// after the route, and keeps that run's post-mortem as JSON.
func runTrafficFailed(t testing.TB, tr traffic, route func(*hypercube.Proc, int, []Msg) []Msg, failed bool) outcome {
	t.Helper()
	m := hypercube.MustNew(tr.dim, costmodel.CM2())
	defer m.Close()
	m.EnableProfile(true)
	m.EnableCritPath(true)
	m.EnableTrace(1 << 20)
	o := outcome{got: make([][]Msg, m.P())}
	var err error
	o.elapsed, err = m.Run(func(p *hypercube.Proc) { o.got[p.ID()] = route(p, 3, tr.out[p.ID()]) })
	if err != nil {
		t.Fatalf("%s: %v", tr.name, err)
	}
	o.stats, o.clocks, o.profile, o.crit = m.LastStats(), m.Clocks(), m.Profile(), m.CritPath()
	o.congestion, o.metrics = m.Congestion(0), simMetrics(m)
	if failed {
		_, err = m.Run(func(p *hypercube.Proc) {
			route(p, 3, tr.out[p.ID()])
			if p.ID() == 0 {
				panic("deliberate failure after the route")
			}
		})
		var re *hypercube.RunError
		if !errors.As(err, &re) {
			t.Fatalf("%s: the failed run returned %v", tr.name, err)
		}
		var pm bytes.Buffer
		if err := re.Report.WriteJSON(&pm); err != nil {
			t.Fatal(err)
		}
		o.postmortem = pm.String()
	}
	return o
}

// sameOutcome compares delivered messages (in order), simulated time
// and message/word counts. nil and empty are the same payload.
func sameOutcome(t testing.TB, name string, got, want outcome) {
	t.Helper()
	if got.elapsed != want.elapsed || got.stats != want.stats || !reflect.DeepEqual(got.clocks, want.clocks) {
		t.Errorf("%s: elapsed %v stats %+v, reference elapsed %v stats %+v", name, got.elapsed, got.stats, want.elapsed, want.stats)
	}
	if want.profile == nil || want.crit == nil || !reflect.DeepEqual(got.profile, want.profile) || !reflect.DeepEqual(got.crit, want.crit) {
		t.Errorf("%s: profile or critical path differs from the reference", name)
	}
	if !reflect.DeepEqual(got.congestion, want.congestion) {
		t.Errorf("%s: link loads %v, reference %v", name, got.congestion, want.congestion)
	}
	if got.metrics != want.metrics {
		t.Errorf("%s: metrics differ from the reference:\n%s\nreference:\n%s", name, got.metrics, want.metrics)
	}
	if got.postmortem != want.postmortem {
		t.Errorf("%s: post-mortem differs from the reference:\n%.2000s\nreference:\n%.2000s", name, got.postmortem, want.postmortem)
	}
	for pid := range want.got {
		g, w := got.got[pid], want.got[pid]
		if len(g) != len(w) {
			t.Fatalf("%s: proc %d received %d messages, reference %d", name, pid, len(g), len(w))
		}
		for k := range w {
			if g[k].Dst != w[k].Dst || g[k].Key != w[k].Key || len(g[k].Words) != len(w[k].Words) ||
				(len(w[k].Words) > 0 && !reflect.DeepEqual(g[k].Words, w[k].Words)) {
				t.Fatalf("%s: proc %d message %d is %+v, reference %+v", name, pid, k, g[k], w[k])
			}
		}
	}
}

// referenceTraffic is the seeded corpus of the differential test and
// the fuzz target: at every d in [0,6], random lists (with empty
// lists, self-sends, zero-length payloads and repeated destinations
// mixed in), all-to-one, one-to-all, and nothing at all.
func referenceTraffic() []traffic {
	var all []traffic
	for d := 0; d <= 6; d++ {
		procs := 1 << d
		rng := rand.New(rand.NewSource(int64(100 + d)))
		payload := func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			return w
		}
		random := make([][]Msg, procs)
		toOne := make([][]Msg, procs)
		fromOne := make([][]Msg, procs)
		for pid := range random {
			if rng.Intn(4) > 0 { // a quarter of the processors inject nothing
				for k := rng.Intn(12); k > 0; k-- {
					m := Msg{Dst: rng.Intn(procs), Key: rng.Intn(1000) - 500, Words: payload(rng.Intn(6))}
					switch rng.Intn(5) {
					case 0:
						m.Dst = pid
					case 1:
						m.Words = nil
					}
					random[pid] = append(random[pid], m)
					if rng.Intn(3) == 0 { // same destination again, other key
						random[pid] = append(random[pid], Msg{Dst: m.Dst, Key: m.Key + 1, Words: payload(2)})
					}
				}
			}
			toOne[pid] = []Msg{{Dst: procs / 3, Key: pid, Words: payload(3)}}
			fromOne[pid] = nil
		}
		for q := 0; q < procs; q++ {
			fromOne[procs-1] = append(fromOne[procs-1], Msg{Dst: q, Key: q, Words: payload(1 + q%3)})
		}
		all = append(all,
			traffic{fmt.Sprintf("d%d/random", d), d, random},
			traffic{fmt.Sprintf("d%d/all-to-one", d), d, toOne},
			traffic{fmt.Sprintf("d%d/one-to-all", d), d, fromOne},
			traffic{fmt.Sprintf("d%d/empty", d), d, make([][]Msg, procs)})
	}
	return all
}

// TestRouteMatchesReference: on every reference traffic, Route
// delivers the reference router's messages in its order at its
// simulated cost, with the same profile, flows, critical path, link
// loads and metrics, and a run that fails on processor 0 right after
// the route leaves the same post-mortem byte for byte.
func TestRouteMatchesReference(t *testing.T) {
	for _, tr := range referenceTraffic() {
		sameOutcome(t, tr.name, runTrafficFailed(t, tr, Route, true), runTrafficFailed(t, tr, routeReference, true))
	}
}

// batchRouter routes a message list the way a wire-form caller does:
// Add each message into a Batch, sized exactly or given no room so
// that it grows from nothing, Route, and read the Inbox with Next.
func batchRouter(exact bool) func(*hypercube.Proc, int, []Msg) []Msg {
	return func(p *hypercube.Proc, tag int, outgoing []Msg) []Msg {
		b := NewBatch(p, 0, 0)
		if exact {
			words := 0
			for _, m := range outgoing {
				words += len(m.Words)
			}
			b = NewBatch(p, len(outgoing), words)
		}
		for _, m := range outgoing {
			copy(b.Add(m.Dst, m.Key, len(m.Words)), m.Words)
		}
		in := b.Route(p, tag)
		var got []Msg
		for key, w, ok := in.Next(); ok; key, w, ok = in.Next() {
			got = append(got, Msg{Dst: p.ID(), Key: key, Words: w})
		}
		return got
	}
}

var batchRouters = []struct {
	name  string
	route func(*hypercube.Proc, int, []Msg) []Msg
}{
	{"exact", batchRouter(true)},
	{"grown", batchRouter(false)},
}

// requestTraffic asks, from every processor, for the keys of tr's
// messages at their destinations, and compares what Request (Ask,
// Batch.Request and Inbox.Next) fetches, and at what simulated cost,
// with the reference's. A key's
// payload is key mod 4 words, served from one reused buffer.
func requestTraffic(t testing.TB, tr traffic) {
	t.Helper()
	run := func(request func(*hypercube.Proc, int, []Msg, func(int) []float64) [][]float64) outcome {
		m := hypercube.MustNew(tr.dim, costmodel.CM2())
		defer m.Close()
		m.EnableProfile(true)
		m.EnableCritPath(true)
		got := make([][][]float64, m.P())
		o := outcome{got: make([][]Msg, m.P())}
		var err error
		o.elapsed, err = m.Run(func(p *hypercube.Proc) {
			scratch := make([]float64, 3)
			got[p.ID()] = request(p, 5, tr.out[p.ID()], func(key int) []float64 {
				for i := range scratch {
					scratch[i] = float64(1000*p.ID() + 10*key + i)
				}
				return scratch[:(key%4+4)%4]
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		for pid, vals := range got {
			for i, w := range vals {
				o.got[pid] = append(o.got[pid], Msg{Dst: pid, Key: i, Words: w})
			}
		}
		o.stats, o.clocks, o.profile, o.crit = m.LastStats(), m.Clocks(), m.Profile(), m.CritPath()
		return o
	}
	sameOutcome(t, tr.name+"/request", run(Request), run(requestReference))
}

// TestBatchMatchesReference: at d = 2..6, a caller that builds its
// traffic with Batch.Add and reads it with Inbox.Next receives the
// reference router's messages in the reference's order at the
// reference's simulated cost, recorders included, whether the batch
// was sized exactly or grew; requests made with Batch.Ask and answered
// through Batch.Request fetch what the reference does.
func TestBatchMatchesReference(t *testing.T) {
	for _, tr := range append(referenceTraffic(), congestedTraffic()...) {
		if tr.dim < 2 {
			continue
		}
		want := runTraffic(t, tr, routeReference)
		for _, br := range batchRouters {
			sameOutcome(t, tr.name+"/"+br.name, runTraffic(t, tr, br.route), want)
		}
		requestTraffic(t, tr)
	}
}

// congestedTraffic piles messages up at intermediate processors under
// dimension-ordered routing, so that processors hold several runs and
// forward parts of one run or of several in a phase: at every d
// in [2, 6], the transpose permutation (the high and low halves of the
// address swapped) and bit reversal, each processor sending four
// messages of 0-3 words to the images of its own and three nearby
// addresses, and all-to-one interleaved with self-sends, which makes
// every injection buffer split with messages leaving between messages
// that stay.
func congestedTraffic() []traffic {
	var all []traffic
	for d := 2; d <= 6; d++ {
		procs := 1 << d
		rng := rand.New(rand.NewSource(int64(300 + d)))
		payload := func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			return w
		}
		h := d / 2
		transpose := func(a int) int { return a&(1<<h-1)<<(d-h) | a>>h }
		reverse := func(a int) int {
			r := 0
			for i := 0; i < d; i++ {
				r |= a >> i & 1 << (d - 1 - i)
			}
			return r
		}
		for _, perm := range []struct {
			name string
			dst  func(int) int
		}{{"transpose", transpose}, {"bit-reversal", reverse}} {
			out := make([][]Msg, procs)
			for pid := range out {
				for j := 0; j < 4; j++ {
					out[pid] = append(out[pid], Msg{Dst: perm.dst(pid ^ j), Key: 4*pid + j, Words: payload((pid + j) % 4)})
				}
			}
			all = append(all, traffic{fmt.Sprintf("d%d/%s", d, perm.name), d, out})
		}
		toOne := make([][]Msg, procs)
		for pid := range toOne {
			toOne[pid] = []Msg{
				{Dst: 0, Key: pid, Words: payload(2)},
				{Dst: pid, Key: -pid, Words: payload(1)},
				{Dst: 0, Key: pid + procs},
				{Dst: pid, Key: -pid - procs, Words: payload(3)},
			}
		}
		all = append(all, traffic{fmt.Sprintf("d%d/all-to-one-with-self", d), d, toOne})
	}
	return all
}

// TestRouteDeliveriesIsolated: what Route, or an Inbox, delivers to a
// processor is that processor's alone. Messages are forwarded in
// place, as subslices of the runs that held them (a batch's own buffer
// among them), so a slip in the slicing would leave two processors'
// deliveries sharing memory: here every processor in turn overwrites
// every word delivered to it, and no other processor's deliveries may
// change.
func TestRouteDeliveriesIsolated(t *testing.T) {
	for _, tr := range append(referenceTraffic(), congestedTraffic()...) {
		deliveriesIsolated(t, tr.name, runTraffic(t, tr, Route).got)
		deliveriesIsolated(t, tr.name+"/inbox", runTraffic(t, tr, batchRouters[0].route).got)
	}
}

func deliveriesIsolated(t *testing.T, name string, got [][]Msg) {
	t.Helper()
	want := make([][]float64, len(got))
	for pid, msgs := range got {
		for _, m := range msgs {
			want[pid] = append(want[pid], m.Words...)
		}
	}
	for pid, msgs := range got {
		mark := -float64(pid + 1)
		for _, m := range msgs {
			for k := range m.Words {
				m.Words[k] = mark
			}
		}
		for k := range want[pid] {
			want[pid][k] = mark
		}
		for q, msgs := range got {
			k := 0
			for _, m := range msgs {
				for _, w := range m.Words {
					if w != want[q][k] {
						t.Fatalf("%s: processor %d overwriting its deliveries changed word %d delivered to processor %d", name, pid, k, q)
					}
					k++
				}
			}
		}
	}
}

// TestSplit: a run that is the only source of a phase's traffic is
// divided in its own memory on every path split takes (nothing
// leaving, leaving whole, as a suffix, as a prefix, and interleaved,
// staged with either side in front), both sides in order, with the
// count and payload words of what leaves; what leaves is
// capacity-clipped, so its receiver cannot append into what stays, and
// the pool scratch of the interleaved cases goes back, so a second
// pass gets every buffer from the pool.
func TestSplit(t *testing.T) {
	type msg struct{ dst, words int }
	cases := [][]msg{
		{{0, 2}, {2, 0}, {0, 3}},                 // nothing leaves
		{{1, 2}, {3, 0}},                         // leaves whole
		{{0, 1}, {2, 3}, {1, 2}, {3, 1}},         // suffix
		{{1, 2}, {3, 0}, {0, 4}, {2, 1}},         // prefix
		{{0, 3}, {1, 1}, {2, 2}, {2, 3}, {0, 0}}, // staying in front, 3 words staged
		{{1, 3}, {0, 1}, {3, 2}, {3, 3}, {1, 0}}, // leaving in front, 3 words staged
		{{0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1}}, // a tie: staying in front
	}
	m := hypercube.MustNew(0, costmodel.CM2())
	defer m.Close()
	pass := func() {
		if _, err := m.Run(func(p *hypercube.Proc) {
			for c, msgs := range cases {
				var run, wantKept, wantFwd []float64
				wantMsgs, wantWords := 0, 0
				for k, mm := range msgs {
					w := appendHeader(nil, 4, mm.dst, k, mm.words)
					for j := 0; j < mm.words; j++ {
						w = append(w, float64(10*k+j))
					}
					run = append(run, w...)
					if mm.dst&1 == 1 {
						wantFwd = append(wantFwd, w...)
						wantMsgs++
						wantWords += mm.words
					} else {
						wantKept = append(wantKept, w...)
					}
				}
				kept, fwd, nfwd, wfwd := split(p, run, 0, 0)
				if !reflect.DeepEqual(append([]float64{}, kept...), append([]float64{}, wantKept...)) ||
					!reflect.DeepEqual(append([]float64{}, fwd...), append([]float64{}, wantFwd...)) {
					t.Errorf("case %d: kept %v forwarded %v, want %v and %v", c, kept, fwd, wantKept, wantFwd)
					continue
				}
				if nfwd != wantMsgs || wfwd != wantWords {
					t.Errorf("case %d: %d messages of %d payload words leave, want %d and %d", c, nfwd, wfwd, wantMsgs, wantWords)
				}
				if cap(fwd) != len(fwd) {
					t.Errorf("case %d: forwarded %d words with capacity %d", c, len(fwd), cap(fwd))
				}
				inPlace := len(fwd) == 0 && &kept[0] == &run[0] ||
					len(kept) == 0 && &fwd[0] == &run[0] ||
					&kept[0] == &run[0] && &fwd[0] == &run[len(kept)] ||
					&fwd[0] == &run[0] && &kept[0] == &run[len(fwd)]
				if !inPlace {
					t.Errorf("case %d: split moved the run out of its own memory", c)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	pass()
	snap := m.Metrics().Snapshot()
	if gets, _ := snap.Value("vmprim_pool_gets_total"); gets == 0 {
		t.Fatal("no interleaved case borrowed a scratch buffer")
	}
	if rate, _ := snap.Value("vmprim_pool_hit_rate"); rate != 1 {
		t.Errorf("second pass: pool hit rate %v, want 1 (scratch not returned)", rate)
	}
}

// TestRouteLeavesOutgoingAlone: callers reuse their message lists
// across calls (the benchmark does), and what Route returns is the
// caller's: appending to one payload must not reach its neighbour.
func TestRouteLeavesOutgoingAlone(t *testing.T) {
	for _, tr := range referenceTraffic() {
		before := fmt.Sprint(tr.out)
		o := runTraffic(t, tr, Route)
		if after := fmt.Sprint(tr.out); after != before {
			t.Fatalf("%s: Route modified its outgoing list", tr.name)
		}
		for pid, got := range o.got {
			want := fmt.Sprint(got)
			for k := range got {
				_ = append(got[k].Words, -1)
			}
			if fmt.Sprint(got) != want {
				t.Fatalf("%s: proc %d: append to a delivered payload overwrote a neighbour", tr.name, pid)
			}
		}
	}
}

func TestRequestMatchesReference(t *testing.T) {
	for d := 0; d <= 5; d++ {
		procs := 1 << d
		rng := rand.New(rand.NewSource(int64(200 + d)))
		want := make([][]Msg, procs)
		for pid := range want {
			for k := rng.Intn(9); k > 0; k-- {
				want[pid] = append(want[pid], Msg{Dst: rng.Intn(procs), Key: rng.Intn(50)})
			}
		}
		run := func(request func(*hypercube.Proc, int, []Msg, func(int) []float64) [][]float64) (string, costmodel.Time, hypercube.Stats) {
			m := hypercube.MustNew(d, costmodel.CM2())
			defer m.Close()
			got := make([][][]float64, procs)
			elapsed, err := m.Run(func(p *hypercube.Proc) {
				scratch := make([]float64, 3)
				got[p.ID()] = request(p, 5, want[p.ID()], func(key int) []float64 {
					// key%4 words, in a buffer reused across calls.
					for i := range scratch {
						scratch[i] = float64(1000*p.ID() + 10*key + i)
					}
					return scratch[:key%4]
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(got), elapsed, m.LastStats()
		}
		got, elapsed, stats := run(Request)
		refGot, refElapsed, refStats := run(requestReference)
		if got != refGot || elapsed != refElapsed || stats != refStats {
			t.Fatalf("d=%d: Request differs from the reference: elapsed %v vs %v, stats %+v vs %+v", d, elapsed, refElapsed, stats, refStats)
		}
	}
}

// trafficBytes and trafficFromBytes are the fuzz target's encoding of
// a workload: one byte of dimension, then seven bytes per message
// (source, destination, two of key, payload length, two of payload
// seed). Every byte string decodes to valid traffic at d <= 4.
func trafficBytes(tr traffic) []byte {
	b := []byte{byte(tr.dim)}
	for src, out := range tr.out {
		for _, m := range out {
			b = append(b, byte(src), byte(m.Dst), byte(m.Key>>8), byte(m.Key), byte(len(m.Words)), byte(src), byte(m.Key))
		}
	}
	return b
}

func trafficFromBytes(b []byte) traffic {
	tr := traffic{name: "fuzz"}
	if len(b) > 0 {
		tr.dim = int(b[0]) % 5
		b = b[1:]
	}
	procs := 1 << tr.dim
	tr.out = make([][]Msg, procs)
	for ; len(b) >= 7; b = b[7:] {
		src := int(b[0]) % procs
		m := Msg{Dst: int(b[1]) % procs, Key: int(int16(uint16(b[2])<<8 | uint16(b[3])))}
		if n := int(b[4]) % 9; n > 0 {
			m.Words = make([]float64, n)
			for i := range m.Words {
				m.Words[i] = float64(int(b[5])<<8|int(b[6])) + float64(i)/8
			}
		}
		tr.out[src] = append(tr.out[src], m)
	}
	return tr
}

// FuzzRouterWire drives bytes -> message lists -> Route, the batch
// path (sized exactly and grown) and Batch.Request at d <= 4 against
// the reference router. `go test` runs the seed corpus (the
// differential test's cases and the congested traffic at d <= 4,
// re-encoded, so in-place and multi-run forwarding both run); `go test
// -fuzz FuzzRouterWire` explores, offline.
func FuzzRouterWire(f *testing.F) {
	for _, tr := range referenceTraffic() {
		if tr.dim <= 4 {
			f.Add(trafficBytes(tr))
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{4, 0xff, 0x80, 7}, 40))
	for _, tr := range congestedTraffic() {
		if tr.dim <= 4 {
			f.Add(trafficBytes(tr))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1+7*256 {
			t.Skip("more traffic than the target is meant to explore")
		}
		tr := trafficFromBytes(b)
		want := runTraffic(t, tr, routeReference)
		sameOutcome(t, "fuzz", runTraffic(t, tr, Route), want)
		for _, br := range batchRouters {
			sameOutcome(t, "fuzz/"+br.name, runTraffic(t, tr, br.route), want)
		}
		requestTraffic(t, tr)
	})
}

// TestRouteHeldOverflow: all-to-one traffic at d = 5 and 6 brings the
// destination more runs than the held array holds (runs double every
// phase: 32 and 64 by the end), so the overflow merge runs there and on
// the way; what is delivered still matches the reference router
// message for message, at the reference's simulated cost. In the third
// case processors 21-31 send nothing, so that processor 0 holds exactly
// maxRuns runs, none of which leaves, when the last phase's arrive. Every
// sender sends one message and runs leave whole under all-to-one, so a
// delivered run holding more than one message is a merged one.
func TestRouteHeldOverflow(t *testing.T) {
	for _, c := range []struct {
		name  string
		d     int
		sends func(pid int) bool
	}{
		{"d5/all-to-zero", 5, func(int) bool { return true }},
		{"d6/all-to-zero", 6, func(int) bool { return true }},
		{"d6/all-to-zero-full", 6, func(pid int) bool { return pid < 21 || pid >= 32 }},
	} {
		out := make([][]Msg, 1<<c.d)
		for pid := range out {
			if c.sends(pid) {
				out[pid] = []Msg{{Dst: 0, Key: pid, Words: []float64{float64(pid), -float64(pid)}}}
			}
		}
		tr := traffic{c.name, c.d, out}
		want := runTraffic(t, tr, routeReference)
		sameOutcome(t, tr.name, runTraffic(t, tr, Route), want)
		sameOutcome(t, tr.name+"/inbox", runTraffic(t, tr, batchRouters[0].route), want)

		m := hypercube.MustNew(c.d, costmodel.CM2())
		runs, merged := 0, 0
		if _, err := m.Run(func(p *hypercube.Proc) {
			b := NewBatch(p, 1, 2)
			for _, msg := range out[p.ID()] {
				copy(b.Add(msg.Dst, msg.Key, len(msg.Words)), msg.Words)
			}
			in := b.Route(p, 1)
			if p.ID() != 0 {
				return
			}
			runs = in.h.n
			for _, run := range in.h.runs[:in.h.n] {
				if next(run, 0) < len(run) {
					merged++
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		m.Close()
		if merged == 0 || runs > maxRuns {
			t.Errorf("%s: the destination holds %d runs, %d of them merged; want at most %d, some merged", tr.name, runs, merged, maxRuns)
		}
	}
}

// permTraffic is one random permutation at dimension d with k messages
// of n words from every processor.
func permTraffic(d, k, n int) [][]Msg {
	procs := 1 << d
	perm := rand.New(rand.NewSource(7)).Perm(procs)
	out := make([][]Msg, procs)
	for pid := range out {
		for j := 0; j < k; j++ {
			out[pid] = append(out[pid], Msg{Dst: perm[(pid+j)%procs], Key: j, Words: make([]float64, n)})
		}
	}
	return out
}

// TestRouteSteadyStateAllocs: what Route allocates per processor per
// call is bounded by a handful of buffers — the injection buffer, a
// merged run when a phase's arrivals overflow the held array, and the
// result slice — however many messages are routed and however long
// they are. Forwarding copies nothing: a phase's traffic leaves as one
// message of in-place parts. A lone message per processor costs less
// still: it never merges. (The decode/encode router allocated per
// message per hop: 18.6 objects per message on the one-message
// traffic, so ~600 per processor at 32 messages. The merging wire-form
// router: 3.39, 8.77, 8.97 and 8.02 on the four cases below; held runs
// copied into a forward buffer when they left from two or more: 2.25,
// 6.44, 6.42 and 7.03; parts forwarded in place: 2.03, 2.99, 2.92 and
// 4.02.)
func TestRouteSteadyStateAllocs(t *testing.T) {
	const d = 6
	m := hypercube.MustNew(d, costmodel.CM2())
	defer m.Close()
	for _, c := range []struct{ msgs, words int }{{1, 16}, {32, 16}, {32, 64}, {128, 1}} {
		out := permTraffic(d, c.msgs, c.words)
		per := testutil.MallocsPerRun(1, 10, func() {
			if _, err := m.Run(func(p *hypercube.Proc) { Route(p, 1, out[p.ID()]) }); err != nil {
				t.Fatal(err)
			}
		}) / float64(m.P())
		t.Logf("%d messages of %d words per processor: %.2f objects per processor per Route", c.msgs, c.words, per)
		bound := 5.0
		if c.msgs == 1 {
			bound = 3
		}
		if per > bound {
			t.Fatalf("%d messages of %d words: Route allocates %.2f objects per processor per call, want <= %.0f", c.msgs, c.words, per, bound)
		}
	}
}

// TestRouteRetainsNothing: routed buffers travel with the messages and
// die with the result; nothing is parked in a pool between calls, so
// the live heap after 200 calls is the live heap after 20. Hotspot
// traffic is the case that made pooled variants drift.
func TestRouteRetainsNothing(t *testing.T) {
	const d = 6
	m := hypercube.MustNew(d, costmodel.CM2())
	defer m.Close()
	out := make([][]Msg, m.P())
	for pid := range out {
		out[pid] = []Msg{{Dst: 0, Key: pid, Words: make([]float64, 64)}, {Dst: pid ^ 1, Key: pid, Words: make([]float64, 64)}}
	}
	heapAfter := func(calls int) uint64 {
		for i := 0; i < calls; i++ {
			if _, err := m.Run(func(p *hypercube.Proc) { Route(p, 1, out[p.ID()]) }); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	early := heapAfter(20)
	late := heapAfter(180)
	// One call moves ~100 KB; 180 retained calls would be ~18 MB.
	if late > early+256<<10 {
		t.Fatalf("live heap grew from %d to %d bytes over 180 more Route calls", early, late)
	}
}

// BenchmarkRouteHotspot is the route workload's hotspot call: at d = 8
// every processor routes one 16-word message to processor 0, one Run
// per iteration. The allocation columns price the router per call.
func BenchmarkRouteHotspot(b *testing.B) {
	m := hypercube.MustNew(8, costmodel.CM2())
	defer m.Close()
	out := make([][]Msg, m.P())
	for pid := range out {
		out[pid] = []Msg{{Dst: 0, Key: pid, Words: make([]float64, 16)}}
	}
	run := func() {
		if _, err := m.Run(func(p *hypercube.Proc) { Route(p, 2, out[p.ID()]) }); err != nil {
			b.Fatal(err)
		}
	}
	run() // create the coroutines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkRouteEmpty is the floor of a route: at d = 8 every
// processor routes nothing, one Run per iteration, so each of the 8
// phases carries no record and costs only its start-up, the price the
// naive kernels' empty phase-sends pay.
func BenchmarkRouteEmpty(b *testing.B) {
	m := hypercube.MustNew(8, costmodel.CM2())
	defer m.Close()
	run := func() {
		if _, err := m.Run(func(p *hypercube.Proc) {
			var batch Batch
			batch.Route(p, 2)
		}); err != nil {
			b.Fatal(err)
		}
	}
	run() // create the coroutines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkRouteEmptyLoop is the naive kernels' shape of the floor: at
// d = 6 every processor routes nothing 200 times in one Run, as the
// naive Gauss at n = 16 does 191 times, so the Run's own dispatch is
// spread over the routes and ns/route prices one empty route.
func BenchmarkRouteEmptyLoop(b *testing.B) {
	const routes = 200
	m := hypercube.MustNew(6, costmodel.CM2())
	defer m.Close()
	run := func() {
		if _, err := m.Run(func(p *hypercube.Proc) {
			for tag := 1; tag <= routes; tag++ {
				var batch Batch
				batch.Route(p, tag)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	run() // create the coroutines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*routes), "ns/route")
}
