package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func at(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "cycle", Parent: -1, Start: at(0), End: at(100)},   // 0
		{Name: "a", Parent: 0, Start: at(10), End: at(40)},        // 1
		{Name: "a.inner", Parent: 1, Start: at(15), End: at(25)},  // 2: nested, counts against a only
		{Name: "b", Parent: 0, Start: at(30), End: at(60)},        // 3: overlaps a by 10 ms
		{Name: "c", Parent: 0, Start: at(90), End: at(120)},       // 4: runs past the parent's end
		{Name: "cycle", Parent: -1, Start: at(200), End: at(210)}, // 5: no children
	}
	fillSelf(spans)
	want := []time.Duration{
		at(100) - (at(50) + at(10)), // children cover [10,60] and [90,100]
		at(30) - at(10),
		at(10),
		at(30),
		at(30),
		at(10),
	}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, s.Name, s.Self, want[i])
		}
	}
	sum := summarize(spans)
	// Roots last 110 ms, 50 ms of it self time.
	if got, want := sum.cycleCover, 1-50.0/110; !near(got, want) {
		t.Errorf("cycleCover = %v, want %v", got, want)
	}
	if got := sum.medianMs("cycle"); got != 55 {
		t.Errorf("median cycle = %v ms, want 55", got)
	}
}

func TestTracerNestsAndNilIsSilent(t *testing.T) {
	var off *tracer
	off.begin("x") // must not panic
	off.end()

	tr := &tracer{epoch: time.Now(), client: 3}
	tr.op = 7
	tr.begin("cycle")
	tr.begin("call")
	tr.end()
	tr.begin("call")
	tr.end()
	tr.end()
	if len(tr.spans) != 3 || len(tr.stack) != 0 {
		t.Fatalf("got %d spans, stack depth %d", len(tr.spans), len(tr.stack))
	}
	for i, wantParent := range []int{-1, 0, 0} {
		s := tr.spans[i]
		if s.Parent != wantParent || s.Op != 7 || s.Client != 3 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d, op 7, client 3", i, s, wantParent)
		}
	}
}

func TestWriteTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	in := []span{{Name: "cycle", Parent: -1, Start: at(1), End: at(3), Self: at(2)}}
	if err := writeTrace(path, "prims", 9, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Seed     int64
		Spans    []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "prims" || doc.Seed != 9 || len(doc.Spans) != 1 || doc.Spans[0] != in[0] {
		t.Errorf("round trip gave %+v", doc)
	}
}
