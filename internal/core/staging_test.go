package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// stagingMachines returns a machine per grid dimension of testGrids,
// closed at the end of the test.
func stagingMachines(t *testing.T) func(embed.Grid) *hypercube.Machine {
	ms := map[int]*hypercube.Machine{}
	t.Cleanup(func() {
		for _, m := range ms {
			m.Close()
		}
	})
	return func(g embed.Grid) *hypercube.Machine {
		if ms[g.D] == nil {
			ms[g.D] = hypercube.MustNew(g.D, costmodel.CM2())
		}
		return ms[g.D]
	}
}

// stagingShapes are the dense shapes the staging tests deal: they
// divide the test grids, leave padding, are narrower or shorter than
// them (processors holding padding alone), or are wide enough that a
// block map's local column block spans several columns.
var stagingShapes = [][2]int{{8, 8}, {7, 5}, {3, 2}, {1, 9}, {13, 1}, {0, 4}, {4, 11}}

// window returns a copy of columns [j0, j1) of dm.
func window(dm *serial.Mat, j0, j1 int) *serial.Mat {
	w := serial.NewMat(dm.R, j1-j0)
	for i := 0; i < dm.R; i++ {
		copy(w.A[i*w.C:(i+1)*w.C], dm.A[i*dm.C+j0:i*dm.C+j1])
	}
	return w
}

// TestLoadDenseMatchesFromDense: the block LoadDense stages on each
// processor is, word for word and padding included, the block
// FromDense deals it, on every test grid, under every pair of maps,
// for every stagingShape, whether the dense matrix is handed over
// whole or as the column windows [0, c1), [c1, c2), [c2, C) for every
// pair of cuts c1 <= c2: so a cut falls inside a processor's column
// block, and some processors hold no column of a window (or a window
// holds no column); and staging charges no simulated time. Blocks of
// unequal row counts are refused.
func TestLoadDenseMatchesFromDense(t *testing.T) {
	machine := stagingMachines(t)
	rng := rand.New(rand.NewSource(55))
	kinds := []embed.MapKind{embed.Block, embed.Cyclic}
	for _, g := range testGrids(t) {
		m := machine(g)
		for _, shape := range stagingShapes {
			dm := randDense(rng, shape[0], shape[1])
			for _, rk := range kinds {
				for _, ck := range kinds {
					ref, err := FromDense(g, dm, rk, ck)
					if err != nil {
						t.Fatal(err)
					}
					for c1 := 0; c1 <= dm.C; c1++ {
						for c2 := c1; c2 <= dm.C; c2++ {
							name := fmt.Sprintf("grid %dx%d %dx%d %v/%v cuts %d,%d", g.PRows(), g.PCols(), shape[0], shape[1], rk, ck, c1, c2)
							blocks := []*serial.Mat{window(dm, 0, c1), window(dm, c1, c2), window(dm, c2, dm.C)}
							if c1 == 0 && c2 == dm.C {
								blocks = []*serial.Mat{dm}
							}
							bad := -1
							elapsed, err := m.Run(func(p *hypercube.Proc) {
								e := NewEnv(p, g)
								a := e.LoadDense(rk, ck, blocks...)
								if !a.SameShape(ref) || !slices.Equal(a.L(p.ID()), ref.L(p.ID())) {
									bad = p.ID()
								}
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if bad >= 0 {
								t.Fatalf("%s: proc %d staged a block other than FromDense's", name, bad)
							}
							if elapsed != 0 {
								t.Fatalf("%s: staging took %v of simulated time, want none", name, elapsed)
							}
						}
					}
				}
			}
		}
	}
	g, _ := embed.NewGrid(1, 1)
	msg := ""
	spmd(t, g, func(e *Env) {
		defer func() {
			if r := recover(); r != nil && e.P.ID() == 0 {
				msg = fmt.Sprint(r)
			}
		}()
		e.LoadDense(embed.Block, embed.Block, serial.NewMat(3, 2), serial.NewMat(4, 1))
	})
	if want := "core: LoadDense blocks differ in row count"; msg != want {
		t.Fatalf("LoadDense panicked with %q, want %q", msg, want)
	}
}

// TestStoreDenseMatchesToDense: StoreDense lands every column window
// [j0, j1) of a staged matrix, and of a host container, in that window
// of the dense matrix ToDense assembles, on every test grid, under
// every pair of maps, for every stagingShape: windows whose ends fall
// inside a processor's column block, windows some processors hold no
// column of, and empty ones. Every processor fills its block's padding
// with NaN first, so a store that wrote padding anywhere shows; every
// window's destination starts NaN, so a store that skipped a column
// shows; and storing charges no simulated time. A dense matrix with
// another row count, or a window reaching outside the matrix, is
// refused.
func TestStoreDenseMatchesToDense(t *testing.T) {
	machine := stagingMachines(t)
	rng := rand.New(rand.NewSource(57))
	kinds := []embed.MapKind{embed.Block, embed.Cyclic}
	nanMat := func(r, c int) *serial.Mat {
		dm := serial.NewMat(r, c)
		for i := range dm.A {
			dm.A[i] = math.NaN()
		}
		return dm
	}
	for _, g := range testGrids(t) {
		m := machine(g)
		for _, shape := range stagingShapes {
			dm := randDense(rng, shape[0], shape[1])
			for _, rk := range kinds {
				for _, ck := range kinds {
					name := fmt.Sprintf("grid %dx%d %dx%d %v/%v", g.PRows(), g.PCols(), shape[0], shape[1], rk, ck)
					ref, err := FromDense(g, dm, rk, ck)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.ToDense()
					type store struct {
						j0             int
						staged, hosted *serial.Mat
					}
					var stores []store
					for j0 := 0; j0 <= dm.C; j0++ {
						for j1 := j0; j1 <= dm.C; j1++ {
							stores = append(stores, store{j0, nanMat(dm.R, j1-j0), nanMat(dm.R, j1-j0)})
						}
					}
					elapsed, err := m.Run(func(p *hypercube.Proc) {
						e := NewEnv(p, g)
						a := e.LoadDense(rk, ck, dm)
						for _, blk := range [][]float64{a.L(p.ID()), ref.L(p.ID())} {
							for l := range blk {
								lr, lc := l/a.CMap.B, l%a.CMap.B
								if a.RMap.GlobalOf(e.GridRow(), lr) < 0 || a.CMap.GlobalOf(e.GridCol(), lc) < 0 {
									blk[l] = math.NaN()
								}
							}
						}
						for _, st := range stores {
							e.StoreDense(st.staged, a, st.j0)
							e.StoreDense(st.hosted, ref, st.j0)
						}
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, st := range stores {
						j1 := st.j0 + st.staged.C
						w := window(want, st.j0, j1)
						if !slices.Equal(st.staged.A, w.A) || !slices.Equal(st.hosted.A, w.A) {
							t.Fatalf("%s window [%d,%d): StoreDense gave %v from the staged matrix and %v from the host one, ToDense %v",
								name, st.j0, j1, st.staged.A, st.hosted.A, w.A)
						}
					}
					if elapsed != 0 {
						t.Fatalf("%s: storing took %v of simulated time, want none", name, elapsed)
					}
				}
			}
		}
	}
	g, _ := embed.NewGrid(1, 1)
	for _, c := range []struct {
		name   string
		dst    *serial.Mat
		j0     int
		ar, ac int
	}{
		{"transposed shape", serial.NewMat(4, 5), 0, 5, 4},
		{"window past the last column", serial.NewMat(5, 2), 3, 5, 4},
		{"window before the first column", serial.NewMat(5, 2), -1, 5, 4},
	} {
		msg := ""
		spmd(t, g, func(e *Env) {
			defer func() {
				if r := recover(); r != nil && e.P.ID() == 0 {
					msg = fmt.Sprint(r)
				}
			}()
			e.StoreDense(c.dst, e.TempMatrix(c.ar, c.ac, embed.Block, embed.Block), c.j0)
		})
		if want := "core: StoreDense shape mismatch"; msg != want {
			t.Fatalf("%s: StoreDense panicked with %q, want %q", c.name, msg, want)
		}
	}
}

// TestLoadSliceStoreSliceMatchHostIO: LoadSlice stages on every
// processor the piece VectorFromSlice deals it (zero where it holds
// none), and StoreSlice lands a staged vector, or a host container, in
// the slice ToSlice reads, for every layout, map, home and
// replication, lengths that divide the deal, leave padding or are
// shorter than it. Every copy of a replicated vector but the first is
// poisoned before StoreSlice, which must read the first, as ToSlice
// does. Neither charges simulated time.
func TestLoadSliceStoreSliceMatchHostIO(t *testing.T) {
	machine := stagingMachines(t)
	rng := rand.New(rand.NewSource(56))
	for _, g := range testGrids(t) {
		m := machine(g)
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			_, hf := layout.fields(g)
			for _, n := range []int{0, 1, 3, 7, 16, 23} {
				for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
					for _, repl := range []bool{false, true} {
						homes := hf.Size()
						if repl {
							homes = 1 // every home holds a copy
						}
						for home := 0; home < homes; home++ {
							name := fmt.Sprintf("grid %dx%d %v n=%d %v home=%d repl=%v", g.PRows(), g.PCols(), layout, n, kind, home, repl)
							x := make([]float64, n)
							for i := range x {
								x[i] = rng.NormFloat64()
							}
							ref, err := VectorFromSlice(g, x, layout, kind, home, repl)
							if err != nil {
								t.Fatal(err)
							}
							want := ref.ToSlice()
							staged, hosted := make([]float64, n), make([]float64, n)
							bad := -1
							elapsed, err := m.Run(func(p *hypercube.Proc) {
								e := NewEnv(p, g)
								pid := p.ID()
								v := e.LoadSlice(x, layout, kind, home, repl)
								if !v.SameShape(ref) || v.Replicated != ref.Replicated || v.Home != ref.Home ||
									!slices.Equal(v.L(pid), ref.L(pid)) {
									bad = pid
								}
								e.StoreSlice(hosted, ref)
								if pid != v.holder(v.PieceCoord(pid), 0) {
									for i := range v.L(pid) {
										v.L(pid)[i] = math.NaN()
									}
								}
								e.StoreSlice(staged, v)
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if bad >= 0 {
								t.Fatalf("%s: proc %d staged a piece other than VectorFromSlice's", name, bad)
							}
							if !slices.Equal(staged, want) || !slices.Equal(hosted, want) {
								t.Fatalf("%s: StoreSlice gave %v from the staged vector and %v from the host one, ToSlice %v",
									name, staged, hosted, want)
							}
							if elapsed != 0 {
								t.Fatalf("%s: staging took %v of simulated time, want none", name, elapsed)
							}
						}
					}
				}
			}
		}
	}
}

// TestStoreSliceRejectsWrongLength: StoreSlice panics unless the slice
// has the vector's length.
func TestStoreSliceRejectsWrongLength(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	msg := ""
	spmd(t, g, func(e *Env) {
		defer func() {
			if r := recover(); r != nil && e.P.ID() == 0 {
				msg = fmt.Sprint(r)
			}
		}()
		e.StoreSlice(make([]float64, 4), e.TempVector(5, Linear, embed.Block, 0, false))
	})
	if want := "core: StoreSlice length mismatch"; msg != want {
		t.Fatalf("StoreSlice panicked with %q, want %q", msg, want)
	}
}
