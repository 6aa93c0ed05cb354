package hypercube_test

import (
	"errors"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
	"vmprim/internal/router"
)

// The router's failure paths, on a 3-cube under FIFO, LIFO and seeded
// random schedules: a route entered with mismatched tags, a message
// left on a link when the route starts, a processor that never enters,
// and one that panics while the others wait in the route. Each fails
// the run by name, with the processor and the post-mortem a reader
// needs, and none hangs.

// routeTag is the tag every processor routes with unless a case says
// otherwise; phase i of a route with tag t travels under t<<6|i.
const routeTag = 5

// routeFailure runs body on a fresh 3-cube under s and returns the
// run's error, which must be a *RunError, and its post-mortem.
func routeFailure(t *testing.T, s hypercube.Schedule, body func(*hypercube.Proc)) (string, *hypercube.RunError) {
	t.Helper()
	m := hypercube.MustNew(3, costmodel.CM2())
	defer m.Close()
	s.Apply(m)
	_, err := m.Run(body)
	var re *hypercube.RunError
	if !errors.As(err, &re) {
		t.Fatalf("Run error %v (%T), want a *RunError", err, err)
	}
	return re.Err.Error(), re
}

// routeOnly routes one message from every processor to its
// complement, under tag.
func routeOnly(p *hypercube.Proc, tag int) {
	router.Route(p, tag, []router.Msg{{Dst: p.P() - 1 - p.ID(), Key: p.ID(), Words: []float64{1, 2}}})
}

func TestRouteFailurePaths(t *testing.T) {
	for _, s := range []hypercube.Schedule{
		{Policy: "fifo"}, {Policy: "lifo"},
		{Policy: "random", Seed: 1}, {Policy: "random", Seed: 2}, {Policy: "random", Seed: 3},
	} {
		t.Run(s.String(), func(t *testing.T) {
			// Processor 1 routes under another tag: its partner in phase
			// 0 receives a message of the wrong tag and dies by name.
			got, _ := routeFailure(t, s, func(p *hypercube.Proc) {
				tag := routeTag
				if p.ID() == 1 {
					tag++
				}
				routeOnly(p, tag)
			})
			if want := "hypercube: processor 0: tag mismatch on dim 0: got 384, want 320"; got != want {
				t.Errorf("mismatched tags: %q, want %q", got, want)
			}

			// Processor 1 leaves a two-word message to processor 0 on
			// their link; the route finds it there before its own.
			got, re := routeFailure(t, s, func(p *hypercube.Proc) {
				if p.ID() == 1 {
					p.Send(0, 99, []float64{7, 8})
				}
				routeOnly(p, routeTag)
			})
			if want := "hypercube: processor 0: tag mismatch on dim 0: got 99, want 320"; got != want {
				t.Errorf("stray message: %q, want %q", got, want)
			}
			if c := re.Report.Procs[0].Captured; len(c) != 1 || c[0].Len != 2 || c[0].Head[0] != 7 {
				t.Errorf("stray message: processor 0 captured %+v, want the two-word stray", c)
			}

			// Processor 5 returns without routing: the run deadlocks, and
			// every processor that entered is blocked in the report.
			got, re = routeFailure(t, s, func(p *hypercube.Proc) {
				if p.ID() != 5 {
					routeOnly(p, routeTag)
				}
			})
			if !strings.Contains(got, ": deadlock") {
				t.Errorf("missing processor: %q, want a deadlock", got)
			}
			if re.Report.Blocked != 7 {
				t.Errorf("missing processor: %d processors blocked, want 7", re.Report.Blocked)
			}
			for pid, ps := range re.Report.Procs {
				if blocked := ps.Wait != ""; blocked != (pid != 5) {
					t.Errorf("missing processor: processor %d waits on %q", pid, ps.Wait)
				}
			}

			// Processor 6 panics while the others route: they are
			// aborted, and the run reports processor 6's panic.
			got, re = routeFailure(t, s, func(p *hypercube.Proc) {
				if p.ID() == 6 {
					panic("sibling failure")
				}
				routeOnly(p, routeTag)
			})
			if want := "hypercube: processor 6: sibling failure"; got != want || re.Report.FailedProc != 6 {
				t.Errorf("sibling panic: %q from processor %d, want %q", got, re.Report.FailedProc, want)
			}
		})
	}
}
