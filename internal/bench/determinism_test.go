package bench

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// GOMAXPROCS determinism between runs. A machine runs its processors
// one at a time, so GOMAXPROCS cannot reorder the processors of one
// run (TestScheduleIndependence in internal/hypercube varies that
// order); what it changes is whether separate machines run at the same
// time, as vmprimd's do. Machines must share no state, so each of two
// runs at once on max(2, NumCPU) threads must match a run alone at
// GOMAXPROCS 1 byte for byte: elapsed times, clocks, link loads,
// profile JSON, Chrome trace, critical-path JSON and every metric, the
// host counters included (both runs execute the same FIFO schedule).

// captureRun runs experiment id with every recorder armed and renders
// each result as text, keyed by its name.
func captureRun(id string) (map[string]string, error) {
	res, err := RunSpec{Exp: id}.Run(armed)
	if err != nil {
		return nil, err
	}
	if res.CritPath == nil {
		return nil, errors.New("no critical path recorded")
	}
	var prof, chrome, crit bytes.Buffer
	if err := errors.Join(res.CritPath.Check(), res.Profile.WriteJSON(&prof), res.Profile.ChromeTrace(&chrome, 0), res.CritPath.WriteJSON(&crit)); err != nil {
		return nil, err
	}
	r := map[string]string{
		"elapsed times":      fmt.Sprint(res.Times),
		"clocks":             fmt.Sprint(res.Clocks),
		"link loads":         fmt.Sprint(res.Links),
		"profile JSON":       prof.String(),
		"Chrome trace":       chrome.String(),
		"critical-path JSON": crit.String(),
	}
	for _, mv := range res.Metrics.Metrics {
		r[mv.Name] = fmt.Sprintf("%+v", mv)
	}
	return r, nil
}

func TestGOMAXPROCSDeterminism(t *testing.T) {
	ids := ProfileIDs()
	if testing.Short() {
		ids = []string{"E2", "E5"}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			want, err := captureRun(id)
			if err != nil {
				t.Fatal(err)
			}
			gmp := max(2, runtime.NumCPU())
			runtime.GOMAXPROCS(gmp)
			var got [2]map[string]string
			var errs [2]error
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = captureRun(id)
				}()
			}
			wg.Wait()
			if err := errors.Join(errs[:]...); err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if len(g) != len(want) {
					t.Errorf("concurrent run %d: %d results, want %d", i, len(g), len(want))
				}
				for k, w := range want {
					if g[k] != w {
						t.Errorf("concurrent run %d at GOMAXPROCS %d: %s differs from the lone run's at GOMAXPROCS 1:\ngot  %.200s\nwant %.200s", i, gmp, k, g[k], w)
					}
				}
			}
		})
	}
}
