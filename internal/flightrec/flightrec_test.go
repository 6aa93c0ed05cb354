package flightrec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
)

func TestRingRecordAndSnapshot(t *testing.T) {
	var r Ring
	// Zero ring drops everything.
	r.Record(Event{Kind: KindSend})
	if got := r.Snapshot(nil); len(got) != 0 || r.Total() != 0 {
		t.Fatalf("zero ring retained events: %v (total %d)", got, r.Total())
	}

	r.Init(3) // rounds up to 4
	if r.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", r.Depth())
	}
	for i := 0; i < 3; i++ {
		r.Record(Event{Kind: KindSend, Tag: i})
	}
	got := r.Snapshot(nil)
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
		r.Record(Event{Kind: KindRecv, Tag: i, VT: costmodel.Time(10 * i)})
	}
	if r.Total() != 11 {
		t.Fatalf("Total = %d, want 11", r.Total())
	}
	got := r.Snapshot(nil)
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
	if r.Total() != 0 || len(r.Snapshot(nil)) != 0 {
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
		r.Record(Event{Kind: KindSend, Tag: i})
	}
	got := r.Snapshot(nil)
	if len(got) != 8 || got[0].Seq != 0 {
		t.Fatalf("full ring: len %d oldest seq %d, want 8 and 0 (nothing dropped)", len(got), got[0].Seq)
	}
	if dropped := r.Total() - uint64(len(got)); dropped != 0 {
		t.Fatalf("full ring reports %d dropped", dropped)
	}

	r.Record(Event{Kind: KindSend, Tag: 8})
	got = r.Snapshot(got[:0])
	if len(got) != 8 || got[0].Seq != 1 || got[7].Seq != 8 {
		t.Fatalf("after one wrap: len %d seqs %d..%d, want 8 and 1..8", len(got), got[0].Seq, got[7].Seq)
	}
	if dropped := r.Total() - uint64(len(got)); dropped != 1 {
		t.Fatalf("after one wrap: %d dropped, want 1", dropped)
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
