package flightrec

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"vmprim/internal/costmodel"
)

// recordTag records an unlabelled event that differs from its
// neighbours only in tag and virtual time.
func recordTag(r *Ring, kind Kind, tag int, vt costmodel.Time) {
	r.Record(kind, NoLabel, 0, tag, 0, -1, 0, vt)
}

func TestRingRecordAndSnapshot(t *testing.T) {
	var r Ring
	// Zero ring drops everything.
	recordTag(&r, KindSend, 0, 0)
	if got := r.Snapshot(nil, nil); len(got) != 0 || r.Total() != 0 {
		t.Fatalf("zero ring retained events: %v (total %d)", got, r.Total())
	}

	r.Init(3) // rounds up to 4
	if r.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", r.Depth())
	}
	for i := 0; i < 3; i++ {
		recordTag(&r, KindSend, i, 0)
	}
	got := r.Snapshot(nil, nil)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i) || ev.Tag != i {
			t.Fatalf("event %d = %+v, want seq/tag %d", i, ev, i)
		}
	}
}

func TestRingWrapsKeepingNewest(t *testing.T) {
	var r Ring
	r.Init(4)
	for i := 0; i < 11; i++ {
		recordTag(&r, KindRecv, i, costmodel.Time(10*i))
	}
	if r.Total() != 11 {
		t.Fatalf("Total = %d, want 11", r.Total())
	}
	got := r.Snapshot(nil, nil)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, ev := range got {
		wantSeq := uint64(7 + i)
		if ev.Seq != wantSeq || ev.Tag != int(wantSeq) {
			t.Fatalf("event %d = %+v, want seq %d", i, ev, wantSeq)
		}
		if i > 0 && ev.VT < got[i-1].VT {
			t.Fatalf("VT order violated at %d: %v after %v", i, ev.VT, got[i-1].VT)
		}
	}
	r.Reset()
	if r.Total() != 0 || len(r.Snapshot(nil, nil)) != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

// TestRingTruncationBoundary pins the exact point where truncation
// starts: a ring holding exactly Depth events has dropped nothing;
// one more record evicts precisely the oldest event.
func TestRingTruncationBoundary(t *testing.T) {
	var r Ring
	r.Init(8)
	for i := 0; i < r.Depth(); i++ {
		recordTag(&r, KindSend, i, 0)
	}
	got := r.Snapshot(nil, nil)
	if len(got) != 8 || got[0].Seq != 0 {
		t.Fatalf("full ring: len %d oldest seq %d, want 8 and 0 (nothing dropped)", len(got), got[0].Seq)
	}
	if dropped := r.Total() - uint64(len(got)); dropped != 0 {
		t.Fatalf("full ring reports %d dropped", dropped)
	}

	recordTag(&r, KindSend, 8, 0)
	got = r.Snapshot(got[:0], nil)
	if len(got) != 8 || got[0].Seq != 1 || got[7].Seq != 8 {
		t.Fatalf("after one wrap: len %d seqs %d..%d, want 8 and 1..8", len(got), got[0].Seq, got[7].Seq)
	}
	if dropped := r.Total() - uint64(len(got)); dropped != 1 {
		t.Fatalf("after one wrap: %d dropped, want 1", dropped)
	}
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// TestSlotIsSmallAndPointerFree guards the ring's storage: a slot is at
// most four words and holds no pointer, so rings cost the collector
// nothing and a record needs no write barrier.
func TestSlotIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 32 {
		t.Fatalf("slot is %d bytes, want <= 32", size)
	}
	if hasPointers(reflect.TypeOf(slot{})) {
		t.Fatal("slot holds a pointer")
	}
	if !hasPointers(reflect.TypeOf(Event{})) {
		t.Fatal("hasPointers misses Event's strings")
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	var r Ring
	r.Init(32)
	var labels Labels
	labels.Intern("bcast")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindCollective, labels.Intern("bcast"), 3, 7, 0, 2, 1, 1.5)
		r.Record(KindSend, NoLabel, 1, 7, 16, 2, 1, 2.5)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v times per call pair, want 0", allocs)
	}
}

// MarshalText spells every Kind, and any undefined value, as String
// does, and hands out its names without allocating.
func TestKindMarshalText(t *testing.T) {
	for k := KindSend; k <= KindCapture+2; k++ {
		b, err := k.MarshalText()
		if err != nil || string(b) != k.String() {
			t.Fatalf("Kind(%d).MarshalText() = %q, %v; want %q", k, b, err, k.String())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = KindRecv.MarshalText() }); allocs != 0 {
		t.Fatalf("MarshalText allocates %v times per call, want 0", allocs)
	}
}

// TestInternAcrossScanLimit grows a table past maxScan, where lookup
// moves from comparing names to the map, and at every size checks that
// each name held keeps the id it first got, ids counting up from one.
func TestInternAcrossScanLimit(t *testing.T) {
	var labels Labels
	const n = 3 * maxScan
	for size := 1; size <= n; size++ {
		for i := 0; i < size; i++ {
			if id := labels.Intern("l" + strconv.Itoa(i)); id != Label(i+1) {
				t.Fatalf("%d names: Intern(l%d) = %d, want %d", size, i, id, i+1)
			}
		}
		if id := labels.Intern(""); id != NoLabel || len(labels.names) != size {
			t.Fatalf("%d names: Intern(\"\") = %d and the table holds %d", size, id, len(labels.names))
		}
	}
}

// TestRingMatchesModel drives a ring and its label table with random
// sequences of Record, Reset and Init, and after every step compares
// the snapshot with a reference model: the last Depth events of a
// plain slice, with every field as recorded except the documented caps
// (depth saturates at maxDepth; a label first seen after the table is
// full reads empty).
func TestRingMatchesModel(t *testing.T) {
	var labels Labels
	// Leave room for two new labels, so the table fills up mid-run.
	for i := 0; i < maxLabels-2; i++ {
		labels.Intern("fill-" + strconv.Itoa(i))
	}
	known, count := map[string]bool{}, maxLabels-2
	names := []string{"", "bcast", "reduce", "route", "scan", "fill-0", "fill-65532"}
	tags := []int{math.MaxInt, math.MinInt, 0, -1, 7}
	dims := []int{0, 1, 1<<20 - 1, 12}
	wordsOf := []int{0, 1, 4096, math.MaxInt32}
	spans := []int{-1, 0, 5, math.MaxInt32}
	depths := []int{0, 1, maxDepth - 1, maxDepth, maxDepth + 1, 1 << 20}
	inits := []int{0, 1, 3, 4, 5, 32}

	rng := rand.New(rand.NewPCG(1, 2))
	pick := func(xs []int) int { return xs[rng.IntN(len(xs))] }
	var r Ring
	var model []Event // every event since the last Reset or Init
	depth := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.IntN(100); {
		case op < 2:
			k := pick(inits)
			r.Init(k)
			depth = 0
			for depth < k {
				depth = max(1, 2*depth)
			}
			model = model[:0]
		case op < 4:
			r.Reset()
			model = model[:0]
		default:
			name := names[rng.IntN(len(names))]
			want := name
			if name != "" && !known[name] && !strings.HasPrefix(name, "fill-") {
				if count == maxLabels {
					want = ""
				} else {
					known[name] = true
					count++
				}
			}
			ev := Event{
				Seq: uint64(len(model)), VT: costmodel.Time(rng.Float64() * 1e9),
				Kind: Kind(rng.IntN(4)), Label: want,
				Dim: pick(dims), Tag: pick(tags), Words: pick(wordsOf), Span: pick(spans),
			}
			d := pick(depths)
			ev.Depth = min(d, maxDepth)
			if depth > 0 {
				model = append(model, ev)
			}
			r.Record(ev.Kind, labels.Intern(name), ev.Dim, ev.Tag, ev.Words, ev.Span, d, ev.VT)
		}
		want := model[max(0, len(model)-depth):]
		got := r.Snapshot(nil, &labels)
		if r.Depth() != depth || r.Total() != uint64(len(model)) || len(got) != len(want) {
			t.Fatalf("step %d: depth %d total %d len %d, want %d, %d, %d",
				step, r.Depth(), r.Total(), len(got), depth, len(model), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: event %d = %+v, want %+v", step, i, got[i], want[i])
			}
		}
	}
	if count != maxLabels || len(labels.names) != maxLabels ||
		labels.Intern("never-seen") != NoLabel || labels.Intern("") != NoLabel {
		t.Fatalf("table holds %d labels (model %d); it must be full at %d and map new and empty labels to NoLabel",
			len(labels.names), count, maxLabels)
	}
}

func sampleReport() *Report {
	return &Report{
		Cause:      "hypercube: processor 0: recv on dim 1 (tag 7): deadlock",
		FailedProc: 0,
		Dim:        1,
		P:          2,
		MaxClockUs: 12.5,
		Blocked:    2,
		Procs: []ProcState{
			{
				ID: 0, ClockUs: 12.5, Wait: "recv", WaitDim: 1, WaitTag: 7, WaitSinceUs: 12.5,
				OpenSpans: []string{"phase", "exchange"},
				Events: []Event{
					{Seq: 3, VT: 10, Kind: KindCollective, Label: "Bcast", Dim: 3, Tag: 6},
					{Seq: 4, VT: 12.5, Kind: KindSend, Dim: 1, Tag: 7, Words: 8, SpanName: "exchange"},
				},
				EventsTotal: 5,
				Captured:    []CapturedBuf{{Len: 8, Head: []float64{1, 2}}},
			},
			{
				ID: 1, ClockUs: 11, BehindUs: 1.5, Wait: "recv", WaitDim: 0, WaitTag: 7, WaitSinceUs: 11,
				Events:      []Event{{Seq: 0, VT: 11, Kind: KindRecv, Dim: 0, Tag: 7, Words: 4}},
				EventsTotal: 1,
			},
		},
		Links: []LinkState{{Src: 0, Dim: 1, Dst: 1, Queued: 1, QueuedWords: 8, HeadTag: 7, HeadVT: 12.5}},
	}
}

func TestReportWriteText(t *testing.T) {
	var buf bytes.Buffer
	sampleReport().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"post-mortem:", "deadlock",
		"blocked 2/2 procs",
		"recv dim 1 tag 7",
		"phase > exchange",
		"flight recorder (last 2 of 5 events)",
		"… 3 earlier events dropped",
		"Bcast",
		"captured payload: 8 words",
		"undelivered link messages",
		"0 -dim1-> 1: 1 msg(s), 8 words",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

// The dropped-events marker appears only when the ring actually
// truncated: a proc whose ring kept everything shows no such line.
func TestReportWriteTextNoDroppedLineWhenComplete(t *testing.T) {
	r := sampleReport()
	for i := range r.Procs {
		r.Procs[i].EventsTotal = uint64(len(r.Procs[i].Events))
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if strings.Contains(buf.String(), "earlier events dropped") {
		t.Fatalf("dropped marker printed for a complete ring:\n%s", buf.String())
	}
}

func TestReportWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cause   string `json:"cause"`
		Blocked int    `json:"blocked"`
		Procs   []struct {
			Proc    int    `json:"proc"`
			Wait    string `json:"wait"`
			WaitDim int    `json:"wait_dim"`
			Events  []struct {
				Kind string  `json:"kind"`
				VT   float64 `json:"vt_us"`
				Span string  `json:"span"`
			} `json:"events"`
		} `json:"procs"`
		Links []struct {
			Queued int `json:"queued"`
		} `json:"links"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report JSON does not parse: %v\n%s", err, buf.String())
	}
	if !strings.Contains(doc.Cause, "deadlock") || doc.Blocked != 2 {
		t.Fatalf("unexpected header: %+v", doc)
	}
	if len(doc.Procs) != 2 || doc.Procs[0].Wait != "recv" || doc.Procs[0].WaitDim != 1 {
		t.Fatalf("unexpected procs: %+v", doc.Procs)
	}
	evs := doc.Procs[0].Events
	if len(evs) != 2 || evs[0].Kind != "coll" || evs[1].Kind != "send" || evs[1].Span != "exchange" {
		t.Fatalf("unexpected events: %+v", evs)
	}
	if len(doc.Links) != 1 || doc.Links[0].Queued != 1 {
		t.Fatalf("unexpected links: %+v", doc.Links)
	}
}
