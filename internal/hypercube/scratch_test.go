package hypercube

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"vmprim/internal/costmodel"
)

// The scratch arena: Proc.Scratch hands out zeroed words from the
// caller's own region, rewound by every exit of Run, grown at the end of
// the Run that outgrew it, and held only weakly between Runs.

// scratchRun runs a body in which every processor takes n words of
// scratch, checks that they are zero, fills them with its address, and
// after an exchange with every neighbor checks that they still hold it.
// It returns the processors whose words were not zero or changed.
func scratchRun(t *testing.T, m *Machine, n int) (dirty, clobbered []int) {
	t.Helper()
	bad := make([]int, m.P())
	if _, err := m.Run(func(p *Proc) {
		s := p.Scratch(n)
		if len(s) != n || cap(s) != n {
			panic("scratch of the wrong length or capacity")
		}
		if slices.ContainsFunc(s, func(x float64) bool { return x != 0 }) {
			bad[p.ID()] |= 1
		}
		for i := range s {
			s[i] = float64(p.ID())
		}
		for d := 0; d < p.Dim(); d++ {
			p.Exchange(d, d, nil)
		}
		if slices.ContainsFunc(s, func(x float64) bool { return x != float64(p.ID()) }) {
			bad[p.ID()] |= 2
		}
	}); err != nil {
		t.Fatal(err)
	}
	for pid, b := range bad {
		if b&1 != 0 {
			dirty = append(dirty, pid)
		}
		if b&2 != 0 {
			clobbered = append(clobbered, pid)
		}
	}
	return dirty, clobbered
}

// TestScratchRegionsZeroedAndDisjoint: every Run's scratch is zero when
// handed out, though the last Run filled the same words, and no
// processor's words change while the others write theirs — on the Run
// that outgrows the arena, which allocates, and on the Runs that fit.
func TestScratchRegionsZeroedAndDisjoint(t *testing.T) {
	m := MustNew(3, costmodel.CM2())
	defer m.Close()
	for run, n := range []int{5, 5, 17, 17, 3} {
		dirty, clobbered := scratchRun(t, m, n)
		if len(dirty) > 0 || len(clobbered) > 0 {
			t.Fatalf("run %d (%d words): procs %v got scratch that was not zero, procs %v had theirs overwritten", run, n, dirty, clobbered)
		}
		if want := max(m.region, n); m.region != want {
			t.Fatalf("run %d: region %d words after a Run that took %d", run, m.region, n)
		}
	}
}

// TestScratchRewoundOnEveryExit: a Run that fails, by a panic or a
// deadlock, rewinds every processor's region as a Run that returns does,
// and unpins the arena.
func TestScratchRewoundOnEveryExit(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	defer m.Close()
	for _, body := range map[string]func(*Proc){
		"return": func(p *Proc) { p.Scratch(4) },
		"panic": func(p *Proc) {
			p.Scratch(4)
			if p.ID() == 1 {
				panic("boom")
			}
		},
		"deadlock": func(p *Proc) {
			p.Scratch(4)
			if p.ID() == 0 {
				p.Recv(0, 1)
			}
		},
	} {
		// Two of the bodies fail their Run by design; what matters is
		// what every exit leaves behind.
		_, _ = m.Run(body)
		for pid, pr := range m.procs {
			if pr.scratchOff != 0 {
				t.Fatalf("proc %d has %d words of scratch taken after the Run", pid, pr.scratchOff)
			}
		}
		if m.arena != nil {
			t.Fatal("the arena is still pinned after the Run")
		}
	}
}

// TestScratchHeldWeaklyBetweenRuns: after a Run the arena is reachable
// only through its weak pointer, so a collection reclaims it, and the
// next Run allocates it again at the region size the machine learned.
func TestScratchHeldWeaklyBetweenRuns(t *testing.T) {
	// Only the collection this test asks for may reclaim the arena.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := MustNew(2, costmodel.CM2())
	defer m.Close()
	scratchRun(t, m, 64)
	scratchRun(t, m, 64)
	if m.weakArena.Value() == nil {
		t.Fatal("no arena after two Runs that took scratch")
	}
	runtime.GC()
	if m.weakArena.Value() != nil {
		t.Fatal("the arena survived a collection between Runs: it is held strongly")
	}
	if dirty, clobbered := scratchRun(t, m, 64); len(dirty) > 0 || len(clobbered) > 0 {
		t.Fatalf("after the arena was reclaimed: procs %v got dirty scratch, procs %v clobbered", dirty, clobbered)
	}
	if a := m.weakArena.Value(); a == nil || a.region != 64 || len(a.words) != 64*m.P() {
		t.Fatal("the Run after a collection did not allocate the arena again at its learned size")
	}
}

// TestPoisonFillsArena: the schedule-independence tests' Poison fills
// the arena with NaN at the end of every Run that used it, and the next
// Run still hands out zeroed words.
func TestPoisonFillsArena(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := MustNew(2, costmodel.CM2())
	defer m.Close()
	Schedule{Policy: "fifo", Poison: true}.Apply(m)
	scratchRun(t, m, 8)
	scratchRun(t, m, 8)
	a := m.weakArena.Value()
	if a == nil || slices.ContainsFunc(a.words, func(x float64) bool { return !math.IsNaN(x) }) {
		t.Fatal("the arena is not all NaN after a poisoned Run")
	}
	if dirty, _ := scratchRun(t, m, 8); len(dirty) > 0 {
		t.Fatalf("procs %v got poisoned scratch", dirty)
	}
}
