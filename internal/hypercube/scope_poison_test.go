package hypercube_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// TestReleasedScopePoisoned: under Schedule.Poison the words a step
// scope's Release gives back read NaN at once, so a raw slice of a
// released temporary, which no header guards, shows in what a run
// computes; the next step still gets them zeroed. The first Run grows
// the arena; words served past it, from the heap, are not poisoned.
func TestReleasedScopePoisoned(t *testing.T) {
	const d, n = 3, 16
	g := embed.SplitFor(d, n, n)
	m := hypercube.MustNew(d, costmodel.CM2())
	defer m.Close()
	hypercube.Schedule{Policy: "fifo", Poison: true}.Apply(m)
	bad := make([]string, m.P())
	warm := false
	body := func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		keep := e.TempVector(n, core.Linear, embed.Block, 0, false).L(p.ID())
		keep[0] = 1
		for i := 0; i < 3; i++ {
			step := e.Mark()
			words := e.TempMatrix(n, n, embed.Block, embed.Block).L(p.ID())
			switch {
			case slices.ContainsFunc(words, func(x float64) bool { return x != 0 }):
				bad[p.ID()] = fmt.Sprintf("step %d got a matrix that was not zero", i)
			case keep[0] != 1:
				bad[p.ID()] = "a release poisoned a temporary made before its scope"
			}
			words[0] = 2
			e.Release(step)
			if warm && slices.ContainsFunc(words, func(x float64) bool { return !math.IsNaN(x) }) {
				bad[p.ID()] = fmt.Sprintf("step %d: released words read %v, want NaN", i, words[:2])
			}
		}
	}
	for run := 0; run < 2; run++ {
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
		for pid, msg := range bad {
			if msg != "" {
				t.Fatalf("run %d, proc %d: %s", run, pid, msg)
			}
		}
		warm = true
	}
}
