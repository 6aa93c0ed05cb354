package hypercube_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"vmprim/internal/bench"
	"vmprim/internal/collective"
	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
	"vmprim/internal/router"
)

// Schedule independence. A run resumes its processors from a FIFO run
// queue, and the package claims that simulated results do not depend
// on that order. These tests check the claim instead of assuming it:
// they run real workloads under hostile legal schedules — the
// processor queued last runs first (LIFO), a seeded random one does,
// links hold one message (the floor linkCap derives for matched
// exchanges) — and require every simulated result to match the
// production schedule's byte for byte.

// hostCounters count host work: frontier parks and buffer-pool traffic
// depend on which processor ran first. They are left out of the
// cross-schedule comparison and compared only between two runs of the
// production schedule, which must repeat exactly.
var hostCounters = map[string]bool{
	"vmprim_sched_recv_parks_total": true,
	"vmprim_pool_gets_total":        true,
	"vmprim_pool_hits_total":        true,
	"vmprim_pool_hit_rate":          true,
}

// production is FIFO at linkCap, the schedule every run executes.
var production = hypercube.Schedule{Policy: "fifo"}

// schedules returns FIFO, LIFO and random under eight seeds, each with
// links of capacity linkCap and 1. The first is production again.
func schedules() []hypercube.Schedule {
	var out []hypercube.Schedule
	for _, c := range []int{0, 1} {
		out = append(out, hypercube.Schedule{Policy: "fifo", LinkCap: c}, hypercube.Schedule{Policy: "lifo", LinkCap: c})
		for seed := uint64(1); seed <= 8; seed++ {
			out = append(out, hypercube.Schedule{Policy: "random", Seed: seed, LinkCap: c})
		}
	}
	return out
}

// results maps "workload/result" to the result rendered as text.
type results map[string]string

// newMachine returns a machine that runs under s and is closed when
// the test ends.
func newMachine(t *testing.T, s hypercube.Schedule, dim int, params costmodel.Params) *hypercube.Machine {
	m := hypercube.MustNew(dim, params)
	s.Apply(m)
	t.Cleanup(m.Close)
	return m
}

// specResults runs E1–E5 through RunSpec with every recorder armed, at
// d=5 and n=64: 32 processors interleave as freely as 1,024 do, at a
// fiftieth of the cost (TestScheduleIndependenceTables runs the
// registry's sizes).
func specResults(t *testing.T, s hypercube.Schedule, r results, ids ...string) {
	for _, id := range ids {
		spec, err := bench.RunSpec{Exp: id, D: 5, N: 64}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.RunOn(newMachine(t, s, spec.D, spec.CostParams()), bench.ProfileOpts{Profile: true, CritPath: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var prof, chrome, crit bytes.Buffer
		if err := errors.Join(res.CritPath.Check(), res.Profile.WriteJSON(&prof), res.Profile.ChromeTrace(&chrome, 0), res.CritPath.WriteJSON(&crit)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r[id+"/elapsed times"] = fmt.Sprint(res.Times)
		r[id+"/clocks"] = fmt.Sprint(res.Profile.Clocks)
		r[id+"/link loads"] = fmt.Sprint(res.Profile.Links)
		r[id+"/profile JSON"] = prof.String()
		r[id+"/Chrome trace"] = chrome.String()
		r[id+"/critical-path JSON"] = crit.String()
		for _, mv := range res.Metrics.Metrics {
			r[id+"/"+mv.Name] = fmt.Sprintf("%+v", mv)
		}
	}
}

// workloadResults runs E1–E5, a collective mix (reduce, broadcast and
// all-to-all personalized on a 4-cube) and the router's two most
// contended patterns (a random permutation plus an all-to-one hotspot
// on a 5-cube) under s.
func workloadResults(t *testing.T, s hypercube.Schedule) results {
	r := results{}
	specResults(t, s, r, bench.ProfileIDs()...)
	run := func(name string, m *hypercube.Machine, body func(*hypercube.Proc)) {
		if _, err := m.Run(body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r[name+"/clocks"] = fmt.Sprint(m.Clocks())
		r[name+"/link loads"] = fmt.Sprint(m.Congestion(0))
	}
	run("collectives", newMachine(t, s, 4, costmodel.CM2()), func(p *hypercube.Proc) {
		const mask = 1<<4 - 1
		data := []float64{float64(p.ID()), float64(p.ID() * 2)}
		collective.Reduce(p, mask, 1, 0, append([]float64(nil), data...), collective.Sum)
		if p.ID() != 0 {
			data = nil
		}
		collective.Bcast(p, mask, 2, 0, data)
		out := make([][]float64, 1<<4)
		for i := range out {
			out[i] = []float64{float64(p.ID()*100 + i)}
		}
		collective.AllToAll(p, mask, 3, out)
	})
	m := newMachine(t, s, 5, costmodel.CM2())
	perm := rand.New(rand.NewSource(42)).Perm(m.P())
	received := make([][]router.Msg, m.P())
	run("router", m, func(p *hypercube.Proc) {
		received[p.ID()] = router.Route(p, 1, []router.Msg{
			{Dst: perm[p.ID()], Key: p.ID(), Words: []float64{1, 2, 3}},
			{Dst: 7, Key: 1000 + p.ID(), Words: []float64{float64(p.ID())}},
		})
	})
	r["router/deliveries"] = fmt.Sprint(received)
	return r
}

func TestScheduleIndependence(t *testing.T) {
	want := workloadResults(t, production)
	const parks = "E4/vmprim_sched_recv_parks_total"
	for _, s := range schedules() {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			got := workloadResults(t, s)
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for k, w := range want {
				_, name, _ := strings.Cut(k, "/")
				if g := got[k]; g != w && (s == production || !hostCounters[name]) {
					n := 0
					for n < min(len(g), len(w)) && g[n] == w[n] {
						n++
					}
					t.Errorf("%s differs from the production schedule's at byte %d:\ngot  %.100s\nwant %.100s", k, n, g[n:], w[n:])
				}
			}
			// A seam that changed nothing would pass the above.
			if s == (hypercube.Schedule{Policy: "lifo"}) && got[parks] == want[parks] {
				t.Errorf("%s is the same under FIFO and LIFO: the schedule seam is a no-op", parks)
			}
		})
	}
}

// TestHostSchedMetricsExcluded pins the quarantine: exactly the four
// host counters, each a metric the registry exports, are left out of
// the cross-schedule comparison (and so compared under FIFO only).
func TestHostSchedMetricsExcluded(t *testing.T) {
	want := []string{"vmprim_pool_gets_total", "vmprim_pool_hit_rate", "vmprim_pool_hits_total", "vmprim_sched_recv_parks_total"}
	if got := slices.Sorted(maps.Keys(hostCounters)); !slices.Equal(got, want) {
		t.Errorf("excluded from the cross-schedule comparison: %v, want %v", got, want)
	}
	r := results{}
	specResults(t, production, r, "E2")
	for _, name := range want {
		if _, ok := r["E2/"+name]; !ok {
			t.Errorf("%s is not a metric the registry exports", name)
		}
	}
}

// TestScheduleIndependenceTables builds every table of bench.All at the
// registry's sizes under two hostile schedules, and requires each to
// match testdata/tables.golden, which TestTablesGolden pins under FIFO.
// Both schedules poison every machine's scratch arena at the end of
// every Run, so a table that read a temporary's storage after its Run
// would differ too.
func TestScheduleIndependenceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every experiment table twice")
	}
	// The tables churn through garbage on a live heap of 30-60 MB; a
	// heap goal of three times that instead of two saves about a tenth
	// of this test's CPU.
	defer debug.SetGCPercent(debug.SetGCPercent(200))
	raw, err := os.ReadFile("../bench/testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{} // "id\tE1" -> that table's block
	for _, block := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n\n") {
		golden[strings.SplitN(block, "\n", 2)[0]] = block
	}
	for _, s := range []hypercube.Schedule{{Policy: "lifo", LinkCap: 1, Poison: true}, {Policy: "random", Seed: 1, Poison: true}} {
		t.Run(s.String(), func(t *testing.T) {
			// Cleanup, not defer: the parallel subtests run after this
			// function returns.
			t.Cleanup(hypercube.SetSchedule(s))
			for _, e := range bench.All() {
				t.Run(e.ID, func(t *testing.T) {
					t.Parallel()
					tb, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					got := fmt.Sprintf("id\t%s\ntitle\t%s\ncolumns\t%s\n", tb.ID, tb.Title, strings.Join(tb.Columns, "\t"))
					for _, row := range tb.Rows {
						got += "row\t" + strings.Join(row, "\t") + "\n"
					}
					got += "notes\t" + tb.Notes
					if want := golden["id\t"+e.ID]; got != want {
						t.Errorf("table differs from testdata/tables.golden\ngot:\n%s\nwant:\n%s", got, want)
					}
				})
			}
		})
	}
}
