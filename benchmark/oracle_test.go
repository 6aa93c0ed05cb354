package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestGoldenRoundTrip(t *testing.T) {
	g := golden{}
	cycle := []callRec{
		{Call: "core.extractrow", SimUs: 1234.5678901234567, Msgs: 3824, Words: 60928},
		{Call: "E1-d4-n64-cm2/profile", SHA256: "ab12"},
	}
	g.set("prims", 1, cycle)
	g.set("prims", 2, cycle[:1])
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := g.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := loadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, g) {
		t.Errorf("golden file did not survive the round trip:\n got %v\nwant %v", back, g)
	}
	if d := diffCycle(back.cycle("prims", 1), cycle); d != "" {
		t.Errorf("cycle differs after round trip: %s", d)
	}
	if back.cycle("prims", 3) != nil || back.cycle("route", 1) != nil {
		t.Error("a seed or workload the file does not cover must have no golden cycle")
	}
}

// The compiled-in golden file covers seeds 1 and 2 of all four
// workloads, and nothing else.
func TestEmbeddedGoldenCoversSeedsOneAndTwo(t *testing.T) {
	g, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		for _, seed := range []int64{1, 2} {
			if len(g.cycle(def.name, seed)) == 0 {
				t.Errorf("golden.json has no cycle for %s seed %d", def.name, seed)
			}
		}
		if g.cycle(def.name, 3) != nil {
			t.Errorf("golden.json unexpectedly covers %s seed 3", def.name)
		}
	}
}

func TestDiffCycle(t *testing.T) {
	want := []callRec{{Call: "a", SimUs: 1, Msgs: 2, Words: 3}, {Call: "b", SHA256: "ff"}}
	same := append([]callRec(nil), want...)
	if d := diffCycle(same, want); d != "" {
		t.Errorf("equal cycles differ: %s", d)
	}
	for name, mutate := range map[string]func([]callRec) []callRec{
		"sim time": func(c []callRec) []callRec { c[0].SimUs += 1e-9; return c },
		"messages": func(c []callRec) []callRec { c[0].Msgs++; return c },
		"words":    func(c []callRec) []callRec { c[0].Words--; return c },
		"hash":     func(c []callRec) []callRec { c[1].SHA256 = "fe"; return c },
		"call":     func(c []callRec) []callRec { c[1].Call = "c"; return c },
		"missing":  func(c []callRec) []callRec { return c[:1] },
	} {
		if d := diffCycle(mutate(append([]callRec(nil), want...)), want); d == "" {
			t.Errorf("a different %s went unnoticed", name)
		}
	}
}

func TestCloseTo(t *testing.T) {
	for _, tc := range []struct {
		got, want float64
		ok        bool
	}{
		{1, 1 + 5e-9, true}, {1, 1 + 5e-8, false},
		{1e6, 1e6 + 5e-3, true}, {1e6, 1e6 + 5e-2, false},
		{0, 5e-9, true}, {0, 5e-8, false},
	} {
		if closeTo(tc.got, tc.want) != tc.ok {
			t.Errorf("closeTo(%v, %v) = %v, want %v", tc.got, tc.want, !tc.ok, tc.ok)
		}
	}
}
