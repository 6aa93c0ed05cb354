package core

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/testutil"
)

// An Env and the header of every SPMD-local temporary come from the
// processor's run-scoped slab, which Machine.Run rewinds after every
// Run, and a held header's storage from the machine's scratch arena.
// These tests pin what that buys (a warm Run allocates nothing) and
// what it must keep (a failed Run leaves the slab rewound, no two live
// objects share a slot, and an idle machine holds no run's data).

const slabDim, slabN = 6, 128

// slabMatrix returns a random slabN x slabN block/block matrix on the
// grid SplitFor picks for a cube of slabDim.
func slabMatrix(t *testing.T) (embed.Grid, *Matrix) {
	t.Helper()
	g := embed.SplitFor(slabDim, slabN, slabN)
	a, err := FromDense(g, randDense(rand.New(rand.NewSource(7)), slabN, slabN), embed.Block, embed.Block)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

func mustRun(t *testing.T, m *hypercube.Machine, body func(*hypercube.Proc)) {
	t.Helper()
	if _, err := m.Run(body); err != nil {
		t.Fatal(err)
	}
}

// checkRewound fails unless every processor's slab is rewound, holds
// no more objects of a kind than its limit, and every object it ever handed
// out is reset: Envs zero, headers expired and without storage.
func checkRewound(t *testing.T, procs []*hypercube.Proc) {
	t.Helper()
	for pid, p := range procs {
		s, ok := p.Local().(*runSlab)
		if !ok {
			t.Fatalf("proc %d has no run-scoped slab", pid)
		}
		if s.envs.n != 0 || s.vecs.n != 0 || s.mats.n != 0 {
			t.Fatalf("proc %d: slab not rewound after the Run: %d Envs, %d vectors, %d matrices still taken",
				pid, s.envs.n, s.vecs.n, s.mats.n)
		}
		if len(s.envs.all) > s.envs.limit || len(s.vecs.all) > s.vecs.limit || len(s.mats.all) > s.mats.limit {
			t.Fatalf("proc %d: the slab keeps %d Envs, %d vectors, %d matrices, more than its limits %d, %d, %d",
				pid, len(s.envs.all), len(s.vecs.all), len(s.mats.all), s.envs.limit, s.vecs.limit, s.mats.limit)
		}
		for _, e := range s.envs.all {
			if *e != (Env{}) {
				t.Fatalf("proc %d: a rewound Env still holds %+v", pid, *e)
			}
		}
		for _, v := range s.vecs.all {
			if v.local != nil || v.vals != nil || v.N != 0 || !v.expired {
				t.Fatalf("proc %d: a rewound vector header keeps its storage (N=%d) or is not expired", pid, v.N)
			}
		}
		for _, a := range s.mats.all {
			if a.local != nil || a.blocks != nil || a.Rows != 0 || !a.expired {
				t.Fatalf("proc %d: a rewound matrix header keeps its storage (%dx%d) or is not expired", pid, a.Rows, a.Cols)
			}
		}
	}
}

// TestNewEnvAllocatesNothing: once the slab has grown to a body's
// needs, a Run whose body only makes Envs allocates nothing.
func TestNewEnvAllocatesNothing(t *testing.T) {
	g := embed.SplitFor(slabDim, slabN, slabN)
	m := hypercube.MustNew(slabDim, costmodel.CM2())
	defer m.Close()
	body := func(p *hypercube.Proc) {
		NewEnv(p, g)
		NewEnv(p, g)
	}
	if allocs := testutil.MallocsPerRun(2, 20, func() { mustRun(t, m, body) }); allocs != 0 {
		t.Fatalf("a warm Run making two Envs per processor allocates %.1f objects, want 0", allocs)
	}
}

// TestPrimitivesAllocateOnlyResults: a warm Run of each primitive call
// of the benchmark's prims workload allocates nothing. Its Env and the
// result's header come from the slab, and the result's storage from the
// machine's scratch arena, which the first Run grew to fit.
func TestPrimitivesAllocateOnlyResults(t *testing.T) {
	g, a := slabMatrix(t)
	x, err := VectorFromSlice(g, a.ToDense().A[:slabN], RowAligned, embed.Block, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	const row, col = slabN / 2, slabN / 2
	for _, tc := range []struct {
		name string
		body func(e *Env)
	}{
		{"ExtractRow", func(e *Env) { e.ExtractRow(a, row, true) }},
		{"InsertRow", func(e *Env) { e.InsertRow(a, x, row) }},
		{"Distribute", func(e *Env) { e.Distribute(x) }},
		{"SpreadRows", func(e *Env) { e.SpreadRows(x, slabN, embed.Block) }},
		{"ReduceRows", func(e *Env) { e.ReduceRows(a, OpSum, true) }},
		{"ReduceColLoc", func(e *Env) { e.ReduceColLoc(a, col, 0, slabN, LocMaxAbs) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := hypercube.MustNew(slabDim, costmodel.CM2())
			defer m.Close()
			body := func(p *hypercube.Proc) { tc.body(NewEnv(p, g)) }
			if allocs := testutil.MallocsPerRun(2, 10, func() { mustRun(t, m, body) }); allocs != 0 {
				t.Fatalf("a warm Run allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestIdleMachineHoldsNoScratch: the storage of a Run's temporaries
// comes from the machine's scratch arena, which the machine holds only
// weakly between Runs. So after a collection an idle machine, held
// directly or parked in a MachinePool, keeps none of it: a Run whose
// body materializes a 32 KB block per processor, 2 MB on the machine,
// leaves the live heap within an eighth of that of where it was before.
func TestIdleMachineHoldsNoScratch(t *testing.T) {
	const dim, n = 6, 512 // 8x8 grid, 64x64 blocks
	g := embed.SplitFor(dim, n, n)
	body := func(p *hypercube.Proc) {
		NewEnv(p, g).TempMatrix(n, n, embed.Block, embed.Block).L(p.ID())[0] = 1
	}
	warm := func(p *hypercube.Proc) { NewEnv(p, g) }
	const block = 8 * (n >> 3) * (n >> 3)
	margin := uint64(block<<dim) / 8
	check := func(t *testing.T, before uint64) {
		t.Helper()
		if after := testutil.LiveHeap(); after > before+margin {
			t.Fatalf("the idle machine keeps %d KB live after a Run of %d KB temporaries per processor, want at most %d KB",
				(after-before)>>10, block>>10, margin>>10)
		}
	}
	t.Run("direct", func(t *testing.T) {
		m := hypercube.MustNew(dim, costmodel.CM2())
		defer m.Close()
		mustRun(t, m, warm)
		before := testutil.LiveHeap()
		mustRun(t, m, body)
		check(t, before)
	})
	t.Run("pool", func(t *testing.T) {
		pool := hypercube.NewMachinePool(1)
		defer pool.Close()
		m, _, err := pool.Acquire(dim, costmodel.CM2())
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, m, warm)
		pool.Release(m)
		before := testutil.LiveHeap()
		m, hit, err := pool.Acquire(dim, costmodel.CM2())
		if err != nil || !hit {
			t.Fatalf("Acquire after Release = (hit %v, %v), want the released machine", hit, err)
		}
		mustRun(t, m, body)
		pool.Release(m)
		check(t, before)
	})
}

// TestFailedRunRewindsSlab: a Run that fails mid-body, by a panic or a
// deadlock, leaves every processor's slab rewound and empty of storage,
// so the next Run, directly on the same machine or on the machine a
// MachinePool hands back after its Release, allocates what a warm Run
// allocates and answers what a fresh machine answers.
func TestFailedRunRewindsSlab(t *testing.T) {
	g, a := slabMatrix(t)
	const row = slabN / 3
	np := 1 << slabDim
	procs := make([]*hypercube.Proc, np)
	got := make([][]float64, np)
	for pid := range got {
		got[pid] = make([]float64, a.CMap.B)
	}
	extract := func(p *hypercube.Proc) *Env {
		procs[p.ID()] = p
		e := NewEnv(p, g)
		copy(got[p.ID()], e.ExtractRow(a, row, true).L(p.ID()))
		return e
	}
	good := func(p *hypercube.Proc) { extract(p) }
	answer := func() []float64 {
		out := make([]float64, 0, np*a.CMap.B)
		for _, piece := range got {
			out = append(out, piece...)
		}
		return out
	}

	fresh := hypercube.MustNew(slabDim, costmodel.CM2())
	defer fresh.Close()
	mustRun(t, fresh, good)
	want := answer()
	warm := testutil.MallocsPerRun(1, 1, func() { mustRun(t, fresh, good) })

	failures := map[string]func(*hypercube.Proc){
		"panic": func(p *hypercube.Proc) {
			e := extract(p)
			e.TempMatrix(slabN, slabN, embed.Block, embed.Block).L(p.ID())
			if p.ID() == 3 {
				panic("boom")
			}
		},
		"deadlock": func(p *hypercube.Proc) {
			e := extract(p)
			e.TempVector(slabN, ColAligned, embed.Block, 0, true).L(p.ID())
			if p.ID() == 0 {
				p.Recv(0, e.NextTag())
			}
		},
	}
	for _, kind := range []string{"panic", "deadlock"} {
		for _, via := range []string{"direct", "pool"} {
			t.Run(kind+"/"+via, func(t *testing.T) {
				// Between two Runs the collector may reclaim the machine's
				// scratch arena, which the next Run then allocates again;
				// held off, it cannot blur the count the failed Run must
				// leave as a warm Run's.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				pool := hypercube.NewMachinePool(1)
				defer pool.Close()
				m, _, err := pool.Acquire(slabDim, costmodel.CM2())
				if err != nil {
					t.Fatal(err)
				}
				mustRun(t, m, good)
				if _, err := m.Run(failures[kind]); err == nil {
					t.Fatalf("the %s body ran without error", kind)
				}
				checkRewound(t, procs)
				if via == "pool" {
					pool.Release(m)
					again, hit, err := pool.Acquire(slabDim, costmodel.CM2())
					if err != nil || !hit || again != m {
						t.Fatalf("Acquire after Release = (hit %v, same machine %v, %v), want the released machine", hit, again == m, err)
					}
				}
				for pid := range got {
					clear(got[pid])
				}
				if allocs := testutil.MallocsPerRun(0, 1, func() { mustRun(t, m, good) }); allocs != warm {
					t.Errorf("the Run after a failed one allocates %.0f objects, a warm Run %.0f", allocs, warm)
				}
				if !slices.Equal(answer(), want) {
					t.Errorf("the Run after a failed one answers differently from a fresh machine")
				}
				m.Close()
			})
		}
	}
}

// TestSlabSlotsDistinct: every Env and temporary made in one Run is an
// object of its own, however many a processor makes: two Envs keep
// separate tag sequences, and two temporaries separate storage.
func TestSlabSlotsDistinct(t *testing.T) {
	g := embed.SplitFor(2, 8, 8)
	m := hypercube.MustNew(2, costmodel.CM2())
	defer m.Close()
	procs := make([]*hypercube.Proc, m.P())
	bad := make([]string, m.P())
	for run := 0; run < 2; run++ {
		mustRun(t, m, func(p *hypercube.Proc) {
			procs[p.ID()] = p
			e1 := NewEnv(p, g)
			t1 := e1.NextTag()
			e2 := NewEnv(p, g)
			e2.NextTag()
			e2.NextTag()
			v1 := e1.TempVector(8, RowAligned, embed.Block, 0, true)
			v2 := e2.TempVector(8, RowAligned, embed.Block, 0, true)
			m1 := e1.TempMatrix(8, 8, embed.Block, embed.Block)
			m2 := e2.TempMatrix(8, 8, embed.Block, embed.Block)
			v1.L(p.ID())[0], v2.L(p.ID())[0] = 1, 2
			m1.L(p.ID())[0], m2.L(p.ID())[0] = 1, 2
			switch {
			case e1 == e2 || v1 == v2 || m1 == m2:
				bad[p.ID()] = "two makes in one Run returned the same object"
			case e1.NextTag() != t1+1:
				bad[p.ID()] = "an Env's tag sequence moved with another Env's"
			case v1.L(p.ID())[0] != 1 || m1.L(p.ID())[0] != 1:
				bad[p.ID()] = "a temporary's storage changed with another's"
			}
		})
		for pid, msg := range bad {
			if msg != "" {
				t.Fatalf("run %d, proc %d: %s", run, pid, msg)
			}
		}
		checkRewound(t, procs)
	}
}

// TestSlabLimitBoundsRun: a body that makes many more temporaries
// than the slab holds in one Run, dropping each after use as a solver
// loop does, keeps the storage of at most the slab's limits alive, not
// one per step, and leaves no more headers than the limits on the
// machine.
func TestSlabLimitBoundsRun(t *testing.T) {
	// Every step makes a vector and a matrix whose piece and block on
	// each processor are one piece of words.
	const dim, steps, piece, blockRows = 2, 64, 1 << 12, 64
	g := embed.SplitFor(dim, piece<<dim, piece<<dim)
	rows, cols := blockRows<<g.Dr, piece/blockRows<<g.Dc
	m := hypercube.MustNew(dim, costmodel.CM2())
	defer m.Close()
	procs := make([]*hypercube.Proc, m.P())
	live := make([]uint64, m.P())
	body := func(p *hypercube.Proc) {
		procs[p.ID()] = p
		e := NewEnv(p, g)
		for i := 0; i < steps; i++ {
			e.TempVector(piece<<dim, Linear, embed.Block, 0, false).L(p.ID())[0] = float64(i)
			e.TempMatrix(rows, cols, embed.Block, embed.Block).L(p.ID())[0] = float64(i)
		}
		// The processors do not communicate, so the last one to run
		// finds every other body returned and its slab not yet rewound.
		live[p.ID()] = testutil.LiveHeap()
	}
	before := testutil.LiveHeap()
	mustRun(t, m, body)
	limits := newRunSlab()
	held := uint64(limits.vecs.limit + limits.mats.limit)
	kept := slices.Max(live) - min(before, slices.Max(live))
	if want := 2 * held * uint64(m.P()) * 8 * piece; kept > want {
		t.Fatalf("a Run of %d steps, each dropping a %d KB piece and block per processor, keeps %d KB live at its end, want at most %d KB (twice the %d pieces the slab may hold per processor)",
			steps, 8*piece>>10, kept>>10, want>>10, held)
	}
	checkRewound(t, procs)
}
