package serve

import (
	"testing"
	"time"
)

// A long-lived registry holds its retained runs and nothing for the
// runs it evicted: after many add/finish cycles it keeps two runs, a
// two-entry backlog, and still tells an evicted ID from an unknown one.
func TestRegistryEvictionKeepsNoPerRunState(t *testing.T) {
	const cycles = 10000
	g := newRegistry(2)
	now := time.Now()
	for i := 0; i < cycles; i++ {
		g.markFinished(g.add(testSpec, now).ID)
	}
	if len(g.runs) != 2 || len(g.finished) != 2 || cap(g.finished) > 8 {
		t.Fatalf("after %d cycles: %d runs, backlog len %d cap %d; want 2, 2 and cap <= 8",
			cycles, len(g.runs), len(g.finished), cap(g.finished))
	}
	list := g.list()
	if len(list) != 2 || list[0].ID != runID(cycles-1) || list[1].ID != runID(cycles) {
		t.Fatalf("list = %v, want %s and %s", list, runID(cycles-1), runID(cycles))
	}
	for _, c := range []struct {
		id             string
		retained, gone bool
	}{
		{runID(cycles), true, false},
		{runID(1), false, true},
		{runID(cycles - 2), false, true},
		{"r-1", false, false},
		{"r-+00001", false, false},
		{runID(0), false, false},
		{runID(cycles + 1), false, false},
		{"bogus", false, false},
	} {
		r, gone := g.get(c.id)
		if (r != nil) != c.retained || gone != c.gone {
			t.Errorf("get(%q) = retained %v, evicted %v; want %v, %v", c.id, r != nil, gone, c.retained, c.gone)
		}
	}
}
